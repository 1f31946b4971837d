//! Vectorized fleet-wide STIG sweeps over the columnar [`FleetStore`].
//!
//! A naive fleet audit is `hosts × findings` pattern evaluations — at a
//! million hosts that dwarfs the real work, because almost every host
//! answers every check exactly like the shared baseline. Each platform's
//! rule table ([`crate::ubuntu::rules`], [`crate::win10::rules`]) pairs
//! every finding's spec with a [`CheckOp`], whose
//! [`CheckOp::read_keys`] names the host slots it reads. The catalogue
//! indexes rules by those keys, and [`CheckOp::affected_hosts`] maps
//! them onto the columnar overlay tables, so a full-fleet sweep costs:
//!
//! * one pattern evaluation against the **baseline** host, plus
//! * one evaluation per **overriding host** per finding — work
//!   proportional to total drift, not fleet size.
//!
//! [`FleetAuditor`] keeps the resulting verdicts as per-host bitmasks
//! (one bit per finding) and re-evaluates **only the dirty hosts** each
//! tick ([`FleetAuditor::refresh`]), optionally fanned out over worker
//! threads with a deterministic merge so the verdict state is
//! byte-identical at any worker count.

use vdo_core::{Catalog, CheckStatus, Checkable, Enforceable, EnforcementStatus, RequirementSpec};
use vdo_host::{FleetStore, HostKey, HostRead, HostWrite, Platform};

use crate::ubuntu::{
    DirectivePattern, EncryptedPasswordsPattern, FileModePattern, KernelParamPattern,
    ServicePattern, UbuntuPackagePattern,
};
use crate::win10::{AuditPolicyPattern, LockoutPolicyPattern, RegistryDwordPattern};

/// A pattern evaluation compiled to its columnar access path.
///
/// Each variant wraps one reusable RQCODE pattern type and knows which
/// overlay table that pattern's `check()` reads, so the sweep can ask
/// the store for exactly the hosts whose verdict can differ from the
/// baseline's.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOp {
    /// Package presence/absence (reads the package column).
    Package(UbuntuPackagePattern),
    /// Config-file directive equality (reads the directive column).
    Directive(DirectivePattern),
    /// File permission ceiling (reads the file-mode column).
    FileMode(FileModePattern),
    /// Password-storage hygiene (reads the account column *and* the
    /// `ENCRYPT_METHOD` directive).
    EncryptedPasswords(EncryptedPasswordsPattern),
    /// Service enablement (reads the service column).
    Service(ServicePattern),
    /// Kernel parameter equality (reads the sysctl column).
    KernelParam(KernelParamPattern),
    /// Windows audit-policy coverage (reads the audit column).
    Audit(AuditPolicyPattern),
    /// Windows registry DWORD equality (reads the registry column).
    RegistryDword(RegistryDwordPattern),
    /// Windows account-lockout policy (reads the lockout column).
    Lockout(LockoutPolicyPattern),
}

impl CheckOp {
    /// Evaluates the wrapped pattern against any host representation.
    pub fn check<H: HostRead>(&self, host: &H) -> CheckStatus {
        match self {
            CheckOp::Package(p) => p.check(host),
            CheckOp::Directive(p) => p.check(host),
            CheckOp::FileMode(p) => p.check(host),
            CheckOp::EncryptedPasswords(p) => p.check(host),
            CheckOp::Service(p) => p.check(host),
            CheckOp::KernelParam(p) => p.check(host),
            CheckOp::Audit(p) => p.check(host),
            CheckOp::RegistryDword(p) => p.check(host),
            CheckOp::Lockout(p) => p.check(host),
        }
    }

    /// Enforces the wrapped pattern against any writable host.
    pub fn enforce<H: HostWrite>(&self, host: &mut H) -> EnforcementStatus {
        match self {
            CheckOp::Package(p) => p.enforce(host),
            CheckOp::Directive(p) => p.enforce(host),
            CheckOp::FileMode(p) => p.enforce(host),
            CheckOp::EncryptedPasswords(p) => p.enforce(host),
            CheckOp::Service(p) => p.enforce(host),
            CheckOp::KernelParam(p) => p.enforce(host),
            CheckOp::Audit(p) => p.enforce(host),
            CheckOp::RegistryDword(p) => p.enforce(host),
            CheckOp::Lockout(p) => p.enforce(host),
        }
    }

    /// The host slots the check reads: the one declaration of what a
    /// rule reads. Its verdict depends on these keys alone, and its
    /// enforcement writes no other key.
    #[must_use]
    pub fn read_keys(&self) -> Vec<HostKey<'_>> {
        match self {
            CheckOp::Package(p) => vec![HostKey::Package(p.package_name())],
            CheckOp::Directive(p) => vec![HostKey::Directive(p.path(), p.key())],
            CheckOp::FileMode(p) => vec![HostKey::FileMode(p.path())],
            CheckOp::EncryptedPasswords(_) => {
                let (path, key) = EncryptedPasswordsPattern::HASH_DIRECTIVE;
                vec![HostKey::Accounts, HostKey::Directive(path, key)]
            }
            CheckOp::Service(p) => vec![HostKey::Service(p.service_name())],
            CheckOp::KernelParam(p) => vec![HostKey::KernelParam(p.key())],
            CheckOp::Audit(p) => vec![HostKey::Audit(p.category(), p.subcategory())],
            CheckOp::RegistryDword(p) => vec![HostKey::Registry(p.key(), p.name())],
            CheckOp::Lockout(_) => vec![HostKey::Lockout],
        }
    }

    /// The hosts whose verdict for this check **can** differ from the
    /// baseline verdict — exactly the hosts holding an overlay on a key
    /// the check reads. Ascending, duplicate-free.
    #[must_use]
    pub fn affected_hosts(&self, store: &FleetStore) -> Vec<u32> {
        let mut hosts: Vec<u32> = self
            .read_keys()
            .iter()
            .flat_map(|key| store.hosts_with_override(key))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// `true` iff a write to `key` can change this check's verdict: the
    /// key names a slot in [`read_keys`](Self::read_keys), compared by
    /// [`HostKey::id`] (so directive keys match ASCII
    /// case-insensitively). A check whose reads miss every key a change
    /// writes keeps its verdict.
    #[must_use]
    pub fn reads(&self, key: &HostKey<'_>) -> bool {
        let id = key.id();
        self.read_keys().iter().any(|k| k.id() == id)
    }
}

impl<H: HostRead> Checkable<H> for CheckOp {
    fn check(&self, host: &H) -> CheckStatus {
        CheckOp::check(self, host)
    }

    fn read_set(&self) -> Option<Vec<u64>> {
        Some(self.read_keys().iter().map(HostKey::id).collect())
    }
}

impl<H: HostWrite> Enforceable<H> for CheckOp {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        CheckOp::enforce(self, host)
    }
}

/// One row of a platform's rule table: a STIG finding's spec and the
/// op that checks and enforces it. The catalogue, the fleet sweep, the
/// read-sets and the Windows 10 guide are all built from these rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCheck {
    spec: RequirementSpec,
    op: CheckOp,
}

impl CompiledCheck {
    /// Pairs a finding's spec with its op.
    #[must_use]
    pub fn new(spec: RequirementSpec, op: CheckOp) -> Self {
        CompiledCheck { spec, op }
    }

    /// The STIG finding id (e.g. `V-219157`).
    #[must_use]
    pub fn finding_id(&self) -> &str {
        self.spec.finding_id()
    }

    /// The evaluation op.
    #[must_use]
    pub fn op(&self) -> &CheckOp {
        &self.op
    }
}

/// Registers every row of a rule table, in order, as an enforceable
/// entry under `package`, for any host type: `ubuntu::catalog()` is
/// this over [`UnixHost`](vdo_host::UnixHost), and the same rows over
/// a [`HostViewMut`](vdo_host::HostViewMut) let the planner harden a
/// host inside a [`FleetStore`].
#[must_use]
pub fn catalog_of<H: HostWrite>(package: &str, rules: Vec<CompiledCheck>) -> Catalog<H> {
    let mut cat = Catalog::new();
    for CompiledCheck { spec, op } in rules {
        cat.register_enforceable(package, spec, op);
    }
    cat
}

/// The rule table for a platform.
#[must_use]
pub fn compiled_for(platform: Platform) -> Vec<CompiledCheck> {
    match platform {
        Platform::Unix => crate::ubuntu::rules(),
        Platform::Windows => crate::win10::rules(),
    }
}

/// Evaluates every check against one host, returning `(pass, incomplete)`
/// bitmasks (bit *i* describes check *i*).
fn eval_masks<H: HostRead>(checks: &[CompiledCheck], host: &H) -> (u64, u64) {
    let mut pass = 0u64;
    let mut incomplete = 0u64;
    for (i, c) in checks.iter().enumerate() {
        match c.op().check(host) {
            CheckStatus::Pass => pass |= 1 << i,
            CheckStatus::Incomplete => incomplete |= 1 << i,
            CheckStatus::Fail => {}
        }
    }
    (pass, incomplete)
}

/// Incremental, vectorized fleet auditor.
///
/// Holds one verdict bit pair per `(host, finding)`. Construction does
/// the delta-proportional initial sweep; [`refresh`](FleetAuditor::refresh)
/// re-evaluates only the hosts a drift tick touched (the store's dirty
/// set), and [`refresh_with_workers`](FleetAuditor::refresh_with_workers)
/// parallelizes that with a chunk-ordered merge so results are identical
/// at any worker count.
#[derive(Debug, Clone)]
pub struct FleetAuditor {
    checks: Vec<CompiledCheck>,
    pass: Vec<u64>,
    incomplete: Vec<u64>,
    all_bits: u64,
}

impl FleetAuditor {
    /// Takes the store's platform rule table and runs the initial
    /// vectorized sweep: one baseline evaluation plus one evaluation per
    /// overriding host per finding.
    ///
    /// # Panics
    /// If the rule table exceeds 64 findings (the bitmask width).
    #[must_use]
    pub fn new(store: &FleetStore) -> FleetAuditor {
        let checks = compiled_for(store.platform());
        assert!(
            checks.len() <= 64,
            "FleetAuditor packs verdicts into u64 bitmasks; got {} checks",
            checks.len()
        );
        let all_bits = if checks.len() == 64 {
            u64::MAX
        } else {
            (1u64 << checks.len()) - 1
        };
        let (base_pass, base_inc) = match store.platform() {
            Platform::Unix => eval_masks(&checks, store.baseline_unix().expect("unix baseline")),
            Platform::Windows => {
                eval_masks(&checks, store.baseline_windows().expect("windows baseline"))
            }
        };
        let n = store.len();
        let mut auditor = FleetAuditor {
            checks,
            pass: vec![base_pass; n],
            incomplete: vec![base_inc; n],
            all_bits,
        };
        // Vectorized correction pass: per finding, touch only the hosts
        // holding an overlay in the column(s) that finding reads.
        for i in 0..auditor.checks.len() {
            for h in auditor.checks[i].op().affected_hosts(store) {
                let status = auditor.checks[i].op().check(&store.host(h as usize));
                auditor.set_status(h as usize, i, status);
            }
        }
        auditor
    }

    /// The platform's rule table, in catalogue order.
    #[must_use]
    pub fn checks(&self) -> &[CompiledCheck] {
        &self.checks
    }

    /// Number of hosts tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pass.len()
    }

    /// `true` iff the auditor tracks no hosts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pass.is_empty()
    }

    fn set_status(&mut self, host: usize, check: usize, status: CheckStatus) {
        let bit = 1u64 << check;
        match status {
            CheckStatus::Pass => {
                self.pass[host] |= bit;
                self.incomplete[host] &= !bit;
            }
            CheckStatus::Incomplete => {
                self.pass[host] &= !bit;
                self.incomplete[host] |= bit;
            }
            CheckStatus::Fail => {
                self.pass[host] &= !bit;
                self.incomplete[host] &= !bit;
            }
        }
    }

    /// The verdict for one `(host, check)` pair.
    #[must_use]
    pub fn status(&self, host: usize, check: usize) -> CheckStatus {
        let bit = 1u64 << check;
        if self.pass[host] & bit != 0 {
            CheckStatus::Pass
        } else if self.incomplete[host] & bit != 0 {
            CheckStatus::Incomplete
        } else {
            CheckStatus::Fail
        }
    }

    /// `true` iff every check passes on `host`.
    #[must_use]
    pub fn host_compliant(&self, host: usize) -> bool {
        self.pass[host] == self.all_bits
    }

    /// Hosts with at least one non-passing check, ascending.
    #[must_use]
    pub fn failing_hosts(&self) -> Vec<u32> {
        self.pass
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != self.all_bits)
            .map(|(h, _)| u32::try_from(h).expect("host id fits u32"))
            .collect()
    }

    /// Total `(host, check)` pairs currently failing or incomplete.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.pass
            .iter()
            .map(|p| u64::from((*p ^ self.all_bits).count_ones()))
            .sum()
    }

    /// Re-evaluates every check for exactly the given hosts (typically
    /// the store's drained dirty set).
    pub fn refresh(&mut self, store: &FleetStore, dirty: &[u32]) {
        for &h in dirty {
            let (p, inc) = eval_masks(&self.checks, &store.host(h as usize));
            self.pass[h as usize] = p;
            self.incomplete[h as usize] = inc;
        }
    }

    /// [`refresh`](FleetAuditor::refresh) fanned out over `workers`
    /// scoped threads. Hosts are split into contiguous chunks and each
    /// worker's results are applied to disjoint rows, so the final
    /// verdict state is byte-identical for any worker count.
    pub fn refresh_with_workers(&mut self, store: &FleetStore, dirty: &[u32], workers: usize) {
        let workers = workers.max(1);
        if workers == 1 || dirty.len() < 2 {
            self.refresh(store, dirty);
            return;
        }
        let chunk = dirty.len().div_ceil(workers);
        let checks = &self.checks;
        let results: Vec<Vec<(u32, u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = dirty
                .chunks(chunk)
                .map(|hosts| {
                    scope.spawn(move || {
                        hosts
                            .iter()
                            .map(|&h| {
                                let (p, inc) = eval_masks(checks, &store.host(h as usize));
                                (h, p, inc)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|j| j.join().expect("sweep worker panicked"))
                .collect()
        });
        for (h, p, inc) in results.into_iter().flatten() {
            self.pass[h as usize] = p;
            self.incomplete[h as usize] = inc;
        }
    }

    /// Brute-force re-evaluation of **every** host — the ground truth
    /// the incremental path is tested against. O(hosts × checks); test
    /// and verification use only.
    pub fn rescan_full(&mut self, store: &FleetStore) {
        for h in 0..store.len() {
            let (p, inc) = eval_masks(&self.checks, &store.host(h));
            self.pass[h] = p;
            self.incomplete[h] = inc;
        }
    }

    /// The raw `(pass, incomplete)` mask pair per host — for equivalence
    /// assertions in tests.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.pass
            .iter()
            .zip(&self.incomplete)
            .map(|(p, i)| (*p, *i))
            .collect()
    }

    /// Deterministic verdict lines for the given hosts: one line per
    /// host naming every finding and its verdict, in catalogue order.
    /// Used by experiments to assert byte-identical results across
    /// worker counts.
    #[must_use]
    pub fn verdict_lines(&self, hosts: &[u32]) -> Vec<String> {
        hosts
            .iter()
            .map(|&h| {
                let mut line = format!("host {h}");
                for (i, c) in self.checks.iter().enumerate() {
                    let s = match self.status(h as usize, i) {
                        CheckStatus::Pass => "pass",
                        CheckStatus::Fail => "FAIL",
                        CheckStatus::Incomplete => "incomplete",
                    };
                    line.push_str(&format!(" {}={s}", c.finding_id()));
                }
                line
            })
            .collect()
    }

    /// Enforces every non-passing check on one host through the store's
    /// copy-on-write write path, then re-evaluates the host. Returns the
    /// number of enforcement actions applied.
    pub fn enforce_host(&mut self, store: &mut FleetStore, host: u32) -> usize {
        let h = host as usize;
        let mut applied = 0;
        for i in 0..self.checks.len() {
            if self.status(h, i) != CheckStatus::Pass {
                let op = self.checks[i].op().clone();
                op.enforce(&mut store.host_mut(h));
                applied += 1;
            }
        }
        if applied > 0 {
            let (p, inc) = eval_masks(&self.checks, &store.host(h));
            self.pass[h] = p;
            self.incomplete[h] = inc;
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_host::{DriftInjector, FleetConfig};

    fn store_cfg(size: usize, seed: u64, p: f64, platform: Platform) -> FleetConfig {
        FleetConfig::builder()
            .size(size)
            .seed(seed)
            .drift_probability(p)
            .drift_events_per_host(4)
            .platform(platform)
            .build()
            .expect("valid config")
    }

    #[test]
    fn read_sets_name_the_slots_each_check_reads() {
        let rules = crate::ubuntu::rules();
        let op = |id: &str| {
            rules
                .iter()
                .find(|c| c.finding_id() == id)
                .expect("finding in the rule table")
                .op()
        };
        let sshd = "/etc/ssh/sshd_config";
        assert!(op("V-219167").reads(&HostKey::Directive(sshd, "permitrootlogin")));
        assert!(!op("V-219167").reads(&HostKey::Directive("/etc/other", "PermitRootLogin")));
        assert!(!op("V-219167").reads(&HostKey::FileMode(sshd)));
        assert!(op("V-219161").reads(&HostKey::Package("telnetd")));
        assert!(!op("V-219161").reads(&HostKey::Package("htop")));
        assert!(op("V-219177").reads(&HostKey::Directive("/etc/login.defs", "encrypt_method")));
        assert!(!op("V-219177").reads(&HostKey::Directive("/etc/login.defs", "PASS_MAX_DAYS")));
        assert!(op("V-219201").reads(&HostKey::FileMode("/etc/shadow")));
        assert!(op("V-219149").reads(&HostKey::Service("rsyslog")));
        assert!(!op("V-219155").reads(&HostKey::Service("rsyslog")));
        for c in crate::win10::rules() {
            assert!(!c.op().reads(&HostKey::Package("telnetd")));
        }
        // An htop install meets no read-set; telnetd and PermitRootLogin
        // meet exactly one each.
        let hits = |key: HostKey<'_>| rules.iter().filter(|c| c.op().reads(&key)).count();
        assert_eq!(hits(HostKey::Package("htop")), 0);
        assert_eq!(hits(HostKey::Package("telnetd")), 1);
        assert_eq!(hits(HostKey::Directive(sshd, "PermitRootLogin")), 1);
    }

    #[test]
    fn initial_sweep_matches_per_host_evaluation() {
        let store = FleetStore::generate(&store_cfg(40, 11, 0.5, Platform::Unix));
        let auditor = FleetAuditor::new(&store);
        let mut brute = auditor.clone();
        brute.rescan_full(&store);
        assert_eq!(auditor.snapshot(), brute.snapshot());
    }

    #[test]
    fn initial_sweep_matches_on_windows_too() {
        let store = FleetStore::generate(&store_cfg(25, 3, 0.6, Platform::Windows));
        let auditor = FleetAuditor::new(&store);
        let mut brute = auditor.clone();
        brute.rescan_full(&store);
        assert_eq!(auditor.snapshot(), brute.snapshot());
    }

    #[test]
    fn refresh_tracks_drift_and_enforcement_repairs_it() {
        let mut store = FleetStore::generate(&store_cfg(30, 7, 0.0, Platform::Unix));
        let mut auditor = FleetAuditor::new(&store);
        assert!(
            auditor.total_violations() > 0,
            "stock baseline must start non-compliant"
        );

        // Drift two hosts through the copy-on-write write path.
        let mut inj = DriftInjector::new(21);
        inj.drift(&mut store.host_mut(4), Platform::Unix, 3);
        inj.drift(&mut store.host_mut(17), Platform::Unix, 3);
        let dirty = store.take_dirty();
        assert!(!dirty.is_empty() && dirty.iter().all(|h| [4, 17].contains(h)));

        auditor.refresh(&store, &dirty);
        let mut brute = auditor.clone();
        brute.rescan_full(&store);
        assert_eq!(auditor.snapshot(), brute.snapshot());

        // Enforcing every failing host drives the whole fleet compliant.
        for h in auditor.failing_hosts() {
            auditor.enforce_host(&mut store, h);
        }
        assert_eq!(auditor.total_violations(), 0);
        assert!((0..store.len()).all(|h| auditor.host_compliant(h)));
    }

    #[test]
    fn worker_counts_do_not_change_verdicts() {
        let mut store = FleetStore::generate(&store_cfg(64, 13, 0.0, Platform::Unix));
        let mut inj = DriftInjector::new(2);
        for h in (0..64).step_by(3) {
            inj.drift(&mut store.host_mut(h), Platform::Unix, 2);
        }
        let dirty = store.take_dirty();
        let base = FleetAuditor::new(&store);
        let mut reference = base.clone();
        reference.refresh(&store, &dirty);
        for workers in [1, 2, 3, 4, 8] {
            let mut a = base.clone();
            a.refresh_with_workers(&store, &dirty, workers);
            assert_eq!(
                a.snapshot(),
                reference.snapshot(),
                "verdicts diverged at {workers} workers"
            );
            assert_eq!(a.verdict_lines(&dirty), reference.verdict_lines(&dirty));
        }
    }

    #[test]
    fn verdict_lines_are_stable_and_readable() {
        let store = FleetStore::generate(&store_cfg(3, 1, 0.0, Platform::Unix));
        let auditor = FleetAuditor::new(&store);
        let lines = auditor.verdict_lines(&[1]);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("host 1 V-219157="));
        // Stock baseline is non-compliant (telnetd installed, aide missing).
        assert!(lines[0].contains("V-219161=FAIL"));
        assert!(lines[0].contains("V-219343=FAIL"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Incremental (dirty-set) detection finds exactly what a
            /// full rescan finds, across multiple drift/enforce rounds.
            #[test]
            fn incremental_equals_full_rescan(
                seed in 0u64..200,
                size in 5usize..40,
                rounds in 1usize..4,
            ) {
                let mut store =
                    FleetStore::generate(&store_cfg(size, seed, 0.3, Platform::Unix));
                let mut auditor = FleetAuditor::new(&store);
                let mut inj = DriftInjector::new(seed.wrapping_mul(31));
                for r in 0..rounds {
                    let victim = (seed as usize + r * 7) % size;
                    inj.drift(&mut store.host_mut(victim), Platform::Unix, 2);
                    let dirty = store.take_dirty();
                    auditor.refresh_with_workers(&store, &dirty, 1 + r % 3);
                    let mut brute = auditor.clone();
                    brute.rescan_full(&store);
                    prop_assert_eq!(auditor.snapshot(), brute.snapshot());
                }
            }

            /// The columnar sweep agrees with the per-host catalogue
            /// evaluation of each materialized host.
            #[test]
            fn columnar_sweep_equals_per_host_catalog(
                seed in 0u64..200,
                size in 1usize..25,
                p in 0.0f64..1.0,
            ) {
                let store = FleetStore::generate(&store_cfg(size, seed, p, Platform::Unix));
                let auditor = FleetAuditor::new(&store);
                let cat = crate::ubuntu::catalog();
                for i in 0..size {
                    let host = store.materialize_unix(i);
                    for (j, (_, verdict)) in cat.check_all(&host).iter().enumerate() {
                        prop_assert_eq!(auditor.status(i, j), *verdict);
                    }
                }
            }
        }
    }
}
