//! In-place staging: a commit's configuration changes applied to the
//! production host itself, and undone unless the commit merges.
//!
//! [`ComplianceGate::evaluate`](crate::ComplianceGate::evaluate) stages a
//! commit on a clone of production, which costs a copy of the whole host
//! per commit. A [`Staged`] guard instead writes the changes to
//! production, saving the exact prior state of every
//! [`HostKey`] it writes. Dropping the guard restores those keys newest
//! first, so a rejected commit (or a panic unwinding through the gates)
//! leaves production `==` to what it was before the push;
//! [`Staged::keep`] merges the commit by keeping the staged state.
//!
//! The guard also knows what the commit writes, so a caller that keeps
//! production's per-rule verdicts re-checks only the rules whose
//! read-sets meet those writes ([`Staged::recheck`]), found through the
//! catalogue's key index.

use vdo_core::{Catalog, CheckStatus, RuleSet};
use vdo_host::{HostKey, SavedKey, UnixHost};

use crate::repo::ConfigChange;

/// A commit's changes staged on a host in place (see the module docs).
#[derive(Debug)]
pub struct Staged<'h, 'c> {
    host: &'h mut UnixHost,
    changes: &'c [ConfigChange],
    /// `saved[i]` is the state of `changes[i].key()` just before
    /// `changes[i]` was applied.
    saved: Vec<SavedKey>,
}

impl<'h, 'c> Staged<'h, 'c> {
    /// Applies `changes` to `host` in order, saving each key's state
    /// just before its write.
    #[must_use]
    pub fn apply(host: &'h mut UnixHost, changes: &'c [ConfigChange]) -> Self {
        let mut staged = Staged {
            host,
            changes,
            saved: Vec::with_capacity(changes.len()),
        };
        for change in changes {
            staged.saved.push(change.key().save(staged.host));
            change.apply(staged.host);
        }
        staged
    }

    /// The host with the changes staged on it.
    #[must_use]
    pub fn host(&self) -> &UnixHost {
        self.host
    }

    /// The keys the staged changes write, in order (repeats included).
    pub fn writes(&self) -> impl Iterator<Item = HostKey<'c>> {
        self.changes.iter().map(ConfigChange::key)
    }

    /// The catalogue's verdicts on the staged host, given `before`, its
    /// verdicts on the host before staging. Only the entries whose
    /// read-set names a written key are re-checked, at O(keys written +
    /// entries hit); every other verdict is copied from `before`.
    #[must_use]
    pub fn recheck(&self, catalog: &Catalog<UnixHost>, before: &[CheckStatus]) -> Vec<CheckStatus> {
        debug_assert_eq!(catalog.len(), before.len());
        let mut verdicts = before.to_vec();
        let mut stale = RuleSet::new();
        for key in self.writes() {
            catalog.mark_readers(key.id(), &mut stale);
        }
        catalog.recheck(self.host, &mut verdicts, &mut stale);
        verdicts
    }

    /// Merges the commit: the host keeps the staged state.
    pub fn keep(mut self) {
        self.saved.clear();
    }
}

/// Rolls the staged changes back unless [`Staged::keep`] ran.
impl Drop for Staged<'_, '_> {
    fn drop(&mut self) {
        while let Some(saved) = self.saved.pop() {
            self.changes[self.saved.len()]
                .key()
                .restore(self.host, saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Commit, ComplianceGate, Gate, GateContext};
    use proptest::prelude::*;
    use vdo_core::{RemediationPlanner, Severity};
    use vdo_host::{DriftInjector, Platform};
    use vdo_stigs::ubuntu::shared_catalog;
    use vdo_trace::Journal;

    fn verdicts(host: &UnixHost) -> Vec<CheckStatus> {
        shared_catalog()
            .check_all(host)
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// A random Ubuntu host: the stock baseline or a hardened one, then
    /// up to a dozen drift events.
    fn host() -> impl Strategy<Value = UnixHost> {
        (prop::bool::ANY, 0u64..1_000_000, 0usize..12).prop_map(|(hardened, seed, events)| {
            let mut host = UnixHost::baseline_ubuntu_1804();
            if hardened {
                RemediationPlanner::default().remediate(shared_catalog(), &mut host);
            }
            DriftInjector::new(seed).drift(&mut host, Platform::Unix, events);
            host
        })
    }

    /// A random change over small pools, so keys repeat within one
    /// commit, directive keys vary in case, and some paths name files
    /// the host does not have.
    fn change() -> impl Strategy<Value = ConfigChange> {
        let packages = || prop::sample::select(vec!["telnetd", "htop", "nis", "vlock", "sudo"]);
        let paths = || {
            prop::sample::select(vec![
                "/etc/ssh/sshd_config",
                "/etc/login.defs",
                "/etc/shadow",
                "/etc/app.conf",
                "/etc/new.d/x.conf",
            ])
        };
        let keys = prop::sample::select(vec![
            "PermitRootLogin",
            "permitrootlogin",
            "ENCRYPT_METHOD",
            "PASS_MAX_DAYS",
            "Protocol",
            "Extra",
        ]);
        let values = prop::sample::select(vec!["no", "yes", "2", "SHA512", "99999", "60"]);
        prop_oneof![
            (packages(), prop::sample::select(vec!["1.0", "0.17"]))
                .prop_map(|(p, v)| ConfigChange::InstallPackage(p.into(), v.into())),
            packages().prop_map(|p| ConfigChange::RemovePackage(p.into())),
            (paths(), keys, values).prop_map(|(p, k, v)| ConfigChange::SetDirective(
                p.into(),
                k.into(),
                v.into()
            )),
            (
                paths(),
                prop::sample::select(vec![0o600u16, 0o640, 0o644, 0o777])
            )
                .prop_map(|(p, m)| ConfigChange::SetFileMode(p.into(), m)),
            (
                prop::sample::select(vec!["rsyslog", "sshd", "ghost"]),
                prop::bool::ANY
            )
                .prop_map(|(s, on)| ConfigChange::SetService(s.into(), on)),
        ]
    }

    fn changes() -> impl Strategy<Value = Vec<ConfigChange>> {
        prop::collection::vec(change(), 0..8)
    }

    proptest! {
        /// Dropping the guard restores the host exactly.
        #[test]
        fn staging_then_rolling_back_restores_the_host(host in host(), changes in changes()) {
            let mut staged_host = host.clone();
            drop(Staged::apply(&mut staged_host, &changes));
            prop_assert_eq!(staged_host, host);
        }

        /// Keeping the staged state equals applying the changes to a clone.
        #[test]
        fn staging_then_keeping_equals_clone_then_apply(host in host(), changes in changes()) {
            let mut reference = host.clone();
            for change in &changes {
                change.apply(&mut reference);
            }
            let mut staged_host = host;
            let staged = Staged::apply(&mut staged_host, &changes);
            prop_assert_eq!(staged.host(), &reference);
            staged.keep();
            prop_assert_eq!(staged_host, reference);
        }

        /// A rule whose read-set misses every written key keeps its
        /// verdict, so `recheck` equals a full `check_all` of the
        /// staged host.
        #[test]
        fn rules_the_writes_miss_keep_their_verdicts(host in host(), changes in changes()) {
            let before = verdicts(&host);
            let mut staged_host = host;
            let staged = Staged::apply(&mut staged_host, &changes);
            let after = verdicts(staged.host());
            for (i, check) in vdo_stigs::ubuntu::rules().iter().enumerate() {
                if !staged.writes().any(|key| check.op().reads(&key)) {
                    prop_assert_eq!(before[i], after[i], "{} changed", check.finding_id());
                }
            }
            prop_assert_eq!(staged.recheck(shared_catalog(), &before), after);
        }
    }

    proptest! {
        /// The compliance decision (gate, passed, reasons) on a commit
        /// staged in place, from rechecked verdicts, equals the
        /// reference decision on a clone, at every blocking severity.
        #[test]
        fn staged_compliance_decision_equals_the_clone_path(
            host in host(),
            changes in changes(),
            block_at in prop::sample::select(vec![Severity::Low, Severity::Medium, Severity::High]),
        ) {
            let gate = ComplianceGate::new(shared_catalog(), block_at);
            let commit = Commit {
                changes,
                ..Commit::new("c")
            };
            let reference = gate.evaluate(&commit, &host);
            let before = verdicts(&host);
            let mut staged_host = host;
            let staged = Staged::apply(&mut staged_host, &commit.changes);
            let after = staged.recheck(shared_catalog(), &before);
            let journal = Journal::disabled();
            let cx = GateContext {
                staged_verdicts: Some(&after),
                ..GateContext::untraced(&commit, staged.host(), &journal)
            };
            prop_assert_eq!(Gate::evaluate(&gate, &cx), reference);
        }
    }

    #[test]
    fn a_panic_in_the_gates_unwinds_the_staged_changes() {
        let mut host = UnixHost::baseline_ubuntu_1804();
        let before = host.clone();
        let changes = [
            ConfigChange::SetDirective("/etc/app.conf".into(), "Mode".into(), "strict".into()),
            ConfigChange::SetFileMode("/etc/app.conf".into(), 0o600),
            ConfigChange::RemovePackage("telnetd".into()),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let staged = Staged::apply(&mut host, &changes);
            assert!(staged.host().file_exists("/etc/app.conf"));
            panic!("a gate panicked");
        }));
        assert!(result.is_err());
        assert_eq!(host, before);
    }
}
