//! Configuration drift injection.
//!
//! VeriDevOps' "reactive protection at operations" exists because deployed
//! systems *drift*: updates, manual fixes, and attacks silently undo
//! hardening. [`DriftInjector`] reproduces that pressure deterministically:
//! seeded with an RNG, it applies random de-hardening events to simulated
//! hosts and reports exactly what it broke, so experiments can measure how
//! much of the damage the check/enforce loop detects and repairs.
//!
//! The injector is written once against the [`HostWrite`] trait, so the
//! same event tables drive owned host structs and store-backed views
//! with the identical RNG draw sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::unix::{FileMode, HostKey};
use crate::view::{HostWrite, Platform};
use crate::windows::AuditSetting;

/// The kinds of drift the injector can introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriftKind {
    /// Install a prohibited package (`nis`, `rsh-server`, `telnetd`, …).
    InstallForbiddenPackage,
    /// Remove a package the STIG requires (e.g. `vlock`).
    RemoveRequiredPackage,
    /// Weaken an sshd directive (e.g. `PermitEmptyPasswords yes`).
    WeakenSshConfig,
    /// Loosen a sensitive file's permission bits.
    LoosenFileMode,
    /// Store an account password in clear text.
    CorruptPasswordStorage,
    /// Switch password hashing back to a weak algorithm.
    WeakenPasswordHashing,
    /// Turn off an audit subcategory on Windows.
    DisableAuditSubcategory,
    /// Reset the account lockout threshold to 0.
    ResetLockoutPolicy,
}

/// All Unix-applicable drift kinds.
pub const UNIX_DRIFT_KINDS: [DriftKind; 6] = [
    DriftKind::InstallForbiddenPackage,
    DriftKind::RemoveRequiredPackage,
    DriftKind::WeakenSshConfig,
    DriftKind::LoosenFileMode,
    DriftKind::CorruptPasswordStorage,
    DriftKind::WeakenPasswordHashing,
];

/// All Windows-applicable drift kinds.
pub const WINDOWS_DRIFT_KINDS: [DriftKind; 2] = [
    DriftKind::DisableAuditSubcategory,
    DriftKind::ResetLockoutPolicy,
];

/// A record of one injected drift event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEvent {
    /// What category of drift happened.
    pub kind: DriftKind,
    /// The slot it wrote.
    pub key: HostKey<'static>,
    /// Human-readable detail (package name, directive, subcategory, …).
    pub detail: String,
}

/// Seeded random drift source.
///
/// ```
/// use vdo_host::{DriftInjector, Platform, UnixHost};
///
/// let mut host = UnixHost::baseline_ubuntu_1804();
/// let mut drift = DriftInjector::new(42);
/// let events = drift.drift(&mut host, Platform::Unix, 3);
/// assert_eq!(events.len(), 3);
/// // Same seed ⇒ same drift on an identical host.
/// let mut host2 = UnixHost::baseline_ubuntu_1804();
/// let events2 = DriftInjector::new(42).drift(&mut host2, Platform::Unix, 3);
/// assert_eq!(events, events2);
/// ```
#[derive(Debug, Clone)]
pub struct DriftInjector {
    rng: StdRng,
}

const FORBIDDEN_PACKAGES: [&str; 4] = ["nis", "rsh-server", "telnetd", "rsh-client"];
const REQUIRED_PACKAGES: [&str; 2] = ["vlock", "openssh-server"];
const SSHD_CONFIG: &str = "/etc/ssh/sshd_config";
const SSH_WEAKENINGS: [(&str, &str); 3] = [
    ("PermitEmptyPasswords", "yes"),
    ("PermitRootLogin", "yes"),
    ("Protocol", "1"),
];
const SENSITIVE_FILES: [&str; 2] = ["/etc/shadow", "/etc/gshadow"];
const HASH_DIRECTIVE: (&str, &str) = ("/etc/login.defs", "ENCRYPT_METHOD");
const AUDIT_TARGETS: [(&str, &str); 4] = [
    ("Account Management", "User Account Management"),
    ("Logon/Logoff", "Logon"),
    ("Privilege Use", "Sensitive Privilege Use"),
    ("Account Logon", "Credential Validation"),
];

impl DriftInjector {
    /// Creates an injector from a seed; the same seed replays the same
    /// event sequence.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DriftInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Applies `n` random drift events for `platform` to any writable
    /// host. Returns the events in application order. The RNG draw
    /// sequence depends only on the seed and `platform`, never on the
    /// host representation: each event is [`plan`](Self::plan) then
    /// [`DriftPlan::apply`].
    pub fn drift<H: HostWrite>(
        &mut self,
        host: &mut H,
        platform: Platform,
        n: usize,
    ) -> Vec<DriftEvent> {
        (0..n).map(|_| self.plan(platform).apply(host)).collect()
    }

    /// Makes every draw of one drift event for `platform` and writes
    /// nothing. A caller that plans a whole fleet in host order can
    /// apply the plans later, in any grouping, and leave every host as
    /// serial [`drift`](Self::drift) calls would. A caller that wants
    /// each event's content fixed by a key instead of by its place in a
    /// stream seeds a fresh injector per event: the SOC engine plans
    /// with `DriftInjector::new(key).plan(platform)`, the key a hash of
    /// `(seed, host, tick)`.
    pub fn plan(&mut self, platform: Platform) -> DriftPlan {
        let kind = match platform {
            Platform::Unix => UNIX_DRIFT_KINDS[self.rng.gen_range(0..UNIX_DRIFT_KINDS.len())],
            Platform::Windows => {
                WINDOWS_DRIFT_KINDS[self.rng.gen_range(0..WINDOWS_DRIFT_KINDS.len())]
            }
        };
        let table = match kind {
            DriftKind::InstallForbiddenPackage => FORBIDDEN_PACKAGES.len(),
            DriftKind::RemoveRequiredPackage => REQUIRED_PACKAGES.len(),
            DriftKind::WeakenSshConfig => SSH_WEAKENINGS.len(),
            DriftKind::LoosenFileMode => SENSITIVE_FILES.len(),
            DriftKind::DisableAuditSubcategory => AUDIT_TARGETS.len(),
            DriftKind::CorruptPasswordStorage
            | DriftKind::WeakenPasswordHashing
            | DriftKind::ResetLockoutPolicy => 0,
        };
        let pick = if table > 0 {
            self.rng.gen_range(0..table)
        } else {
            0
        };
        DriftPlan { kind, pick }
    }
}

/// One drift event with every random choice made: what
/// [`DriftInjector::plan`] drew, for [`apply`](Self::apply) to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftPlan {
    kind: DriftKind,
    /// Index into the kind's target table (0 for kinds without one,
    /// which draw no pick).
    pick: usize,
}

impl DriftPlan {
    /// The one slot [`apply`](Self::apply) writes.
    #[must_use]
    pub fn key(&self) -> HostKey<'static> {
        let pick = self.pick;
        match self.kind {
            DriftKind::InstallForbiddenPackage => HostKey::Package(FORBIDDEN_PACKAGES[pick]),
            DriftKind::RemoveRequiredPackage => HostKey::Package(REQUIRED_PACKAGES[pick]),
            DriftKind::WeakenSshConfig => HostKey::Directive(SSHD_CONFIG, SSH_WEAKENINGS[pick].0),
            DriftKind::LoosenFileMode => HostKey::FileMode(SENSITIVE_FILES[pick]),
            DriftKind::CorruptPasswordStorage => HostKey::Accounts,
            DriftKind::WeakenPasswordHashing => {
                HostKey::Directive(HASH_DIRECTIVE.0, HASH_DIRECTIVE.1)
            }
            DriftKind::DisableAuditSubcategory => {
                HostKey::Audit(AUDIT_TARGETS[pick].0, AUDIT_TARGETS[pick].1)
            }
            DriftKind::ResetLockoutPolicy => HostKey::Lockout,
        }
    }

    /// Writes the planned drift into `host` and reports it.
    pub fn apply<H: HostWrite>(&self, host: &mut H) -> DriftEvent {
        let pick = self.pick;
        let detail = match self.kind {
            DriftKind::InstallForbiddenPackage => {
                let pkg = FORBIDDEN_PACKAGES[pick];
                host.install_package(pkg, "0.0-drift");
                pkg.to_string()
            }
            DriftKind::RemoveRequiredPackage => {
                let pkg = REQUIRED_PACKAGES[pick];
                host.remove_package(pkg);
                pkg.to_string()
            }
            DriftKind::WeakenSshConfig => {
                let (k, v) = SSH_WEAKENINGS[pick];
                host.write_directive(SSHD_CONFIG, k, v);
                format!("{k}={v}")
            }
            DriftKind::LoosenFileMode => {
                let path = SENSITIVE_FILES[pick];
                host.set_file_mode(path, FileMode::new(0o666));
                path.to_string()
            }
            DriftKind::CorruptPasswordStorage => {
                host.corrupt_password_storage("admin");
                "admin".to_string()
            }
            DriftKind::WeakenPasswordHashing => {
                host.write_directive(HASH_DIRECTIVE.0, HASH_DIRECTIVE.1, "MD5");
                "ENCRYPT_METHOD=MD5".to_string()
            }
            DriftKind::DisableAuditSubcategory => {
                let (c, s) = AUDIT_TARGETS[pick];
                host.set_audit(c, s, AuditSetting::NONE);
                format!("{c}/{s}")
            }
            DriftKind::ResetLockoutPolicy => {
                host.set_lockout_threshold(0);
                "lockout_threshold=0".to_string()
            }
        };
        DriftEvent {
            kind: self.kind,
            key: self.key(),
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unix::UnixHost;
    use crate::windows::WindowsHost;
    use proptest::prop_assert_eq;

    #[test]
    fn unix_drift_is_deterministic_per_seed() {
        let mut a = UnixHost::baseline_ubuntu_1804();
        let mut b = UnixHost::baseline_ubuntu_1804();
        let ea = DriftInjector::new(7).drift(&mut a, Platform::Unix, 10);
        let eb = DriftInjector::new(7).drift(&mut b, Platform::Unix, 10);
        assert_eq!(ea, eb);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = UnixHost::baseline_ubuntu_1804();
        let mut b = UnixHost::baseline_ubuntu_1804();
        let ea = DriftInjector::new(1).drift(&mut a, Platform::Unix, 20);
        let eb = DriftInjector::new(2).drift(&mut b, Platform::Unix, 20);
        assert_ne!(ea, eb, "20 events from different seeds should not coincide");
    }

    #[test]
    fn unix_events_actually_mutate() {
        let mut h = UnixHost::new("clean");
        h.add_account("admin", 1000, false, true);
        let before = h.clone();
        let events = DriftInjector::new(3).drift(&mut h, Platform::Unix, 8);
        assert_eq!(events.len(), 8);
        assert_ne!(h, before, "eight drift events must leave a trace");
    }

    #[test]
    fn windows_drift_disables_things() {
        let mut h = WindowsHost::baseline_win10();
        h.set_lockout_threshold(5);
        let events = DriftInjector::new(11).drift(&mut h, Platform::Windows, 12);
        assert_eq!(events.len(), 12);
        // With 12 events over 2 kinds, both kinds occur w.h.p. for this seed.
        assert!(events
            .iter()
            .any(|e| e.kind == DriftKind::ResetLockoutPolicy));
        assert_eq!(h.lockout_threshold(), 0);
    }

    #[test]
    fn drift_kinds_are_disjoint_per_platform() {
        for k in UNIX_DRIFT_KINDS {
            assert!(!WINDOWS_DRIFT_KINDS.contains(&k));
        }
    }

    /// Checks both halves of the plan/apply split on one platform:
    /// `drift(h, p, n)` equals `n` plans applied in order, and a fleet
    /// planned in host order then applied shard by shard ends where
    /// serial `drift` calls leave it.
    fn plan_then_apply_matches_drift<H>(
        base: &H,
        platform: Platform,
        seed: u64,
        per_host: &[usize],
        shards: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError>
    where
        H: HostWrite + Clone + PartialEq + std::fmt::Debug,
    {
        let n = per_host.iter().sum();
        let mut serial = base.clone();
        let events = DriftInjector::new(seed).drift(&mut serial, platform, n);
        let mut planned = base.clone();
        let mut injector = DriftInjector::new(seed);
        let replayed: Vec<DriftEvent> = (0..n)
            .map(|_| injector.plan(platform).apply(&mut planned))
            .collect();
        prop_assert_eq!(&events, &replayed);
        prop_assert_eq!(&serial, &planned);

        let mut serial_fleet = vec![base.clone(); per_host.len()];
        let mut injector = DriftInjector::new(seed);
        let serial_events: Vec<Vec<DriftEvent>> = serial_fleet
            .iter_mut()
            .zip(per_host)
            .map(|(host, &k)| injector.drift(host, platform, k))
            .collect();
        let mut injector = DriftInjector::new(seed);
        let plans: Vec<Vec<DriftPlan>> = per_host
            .iter()
            .map(|&k| (0..k).map(|_| injector.plan(platform)).collect())
            .collect();
        let mut sharded_fleet = vec![base.clone(); per_host.len()];
        let mut sharded_events = vec![Vec::new(); per_host.len()];
        for shard in 0..shards {
            for (id, host) in sharded_fleet.iter_mut().enumerate() {
                if id % shards == shard {
                    sharded_events[id] = plans[id].iter().map(|p| p.apply(host)).collect();
                }
            }
        }
        prop_assert_eq!(&serial_events, &sharded_events);
        prop_assert_eq!(&serial_fleet, &sharded_fleet);
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn planning_then_applying_matches_serial_drift(
            seed in 0u64..1_000,
            per_host in proptest::prop::collection::vec(0usize..4, 1..24),
            shards in 1usize..6,
        ) {
            plan_then_apply_matches_drift(
                &UnixHost::baseline_ubuntu_1804(),
                Platform::Unix,
                seed,
                &per_host,
                shards,
            )?;
            plan_then_apply_matches_drift(
                &WindowsHost::baseline_win10(),
                Platform::Windows,
                seed,
                &per_host,
                shards,
            )?;
        }
    }
}
