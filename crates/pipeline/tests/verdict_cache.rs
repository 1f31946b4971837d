//! Verdicts kept through the catalogue's key index stay exact.
//!
//! A tenant, the SOC and the planner each keep a host's per-rule
//! verdicts and, after a write, re-check only the rules that read a key
//! the write named: a commit's changes ([`Staged::recheck`]), a drift
//! event's key, or the keys an enforced rule shares with others. Here
//! random sequences of those writes hit Ubuntu and Windows 10 hosts,
//! and after every step the kept verdicts must equal a full check.

use proptest::prelude::*;
use vdo_core::{Catalog, CheckStatus, RemediationPlanner, RuleSet};
use vdo_host::{DriftInjector, HostWrite, Platform, UnixHost, WindowsHost};
use vdo_pipeline::{ConfigChange, Staged};

/// One write to the host, and how the kept verdicts follow it.
#[derive(Debug, Clone)]
enum Step {
    /// Stage and keep a commit (Ubuntu only).
    Commit(Vec<ConfigChange>),
    /// One drift event drawn from this seed.
    Drift(u64),
    /// Enforce this rule (modulo the catalogue size), failing or not.
    Enforce(usize),
    /// Run the planner from the kept verdicts.
    Remediate,
}

/// A random change over small pools, so keys repeat, directive keys
/// vary in case, and some paths name files the host does not have.
fn change() -> impl Strategy<Value = ConfigChange> {
    let packages = || prop::sample::select(vec!["telnetd", "nis", "vlock", "sudo", "aide"]);
    let paths = prop::sample::select(vec![
        "/etc/ssh/sshd_config",
        "/etc/login.defs",
        "/etc/shadow",
        "/etc/new.conf",
    ]);
    let keys = prop::sample::select(vec![
        "PermitRootLogin",
        "permitemptypasswords",
        "ENCRYPT_METHOD",
        "encrypt_method",
        "PASS_MAX_DAYS",
        "Protocol",
    ]);
    let values = prop::sample::select(vec!["no", "yes", "2", "SHA512", "MD5", "60"]);
    prop_oneof![
        packages().prop_map(|p| ConfigChange::InstallPackage(p.into(), "1.0".into())),
        packages().prop_map(|p| ConfigChange::RemovePackage(p.into())),
        (paths.clone(), keys, values).prop_map(|(p, k, v)| ConfigChange::SetDirective(
            p.into(),
            k.into(),
            v.into()
        )),
        (paths, prop::sample::select(vec![0o600u16, 0o640, 0o666]))
            .prop_map(|(p, m)| ConfigChange::SetFileMode(p.into(), m)),
        (
            prop::sample::select(vec!["rsyslog", "auditd", "sshd"]),
            prop::bool::ANY
        )
            .prop_map(|(s, on)| ConfigChange::SetService(s.into(), on)),
    ]
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        prop::collection::vec(change(), 1..4).prop_map(Step::Commit),
        (0u64..1_000_000).prop_map(Step::Drift),
        (0u64..1_000_000).prop_map(Step::Drift),
        (0usize..64).prop_map(Step::Enforce),
        (0usize..1).prop_map(|_| Step::Remediate),
    ];
    prop::collection::vec(step, 1..16)
}

/// Applies `step` to `host` and brings `verdicts` along through the
/// key index. Commits are the caller's: they carry Unix changes.
fn apply<H: HostWrite>(
    catalog: &Catalog<H>,
    platform: Platform,
    host: &mut H,
    verdicts: &mut [CheckStatus],
    step: &Step,
) {
    let mut stale = RuleSet::new();
    match step {
        Step::Commit(_) => {}
        Step::Drift(seed) => {
            let event = DriftInjector::new(*seed).plan(platform).apply(host);
            catalog.mark_readers(event.key.id(), &mut stale);
        }
        Step::Enforce(rule) => {
            let rule = rule % catalog.len();
            catalog.get(rule).expect("rule in range").enforce(host);
            catalog.mark_sharing(rule, &mut stale);
        }
        Step::Remediate => {
            RemediationPlanner::default().remediate_from(catalog, host, verdicts);
        }
    }
    catalog.recheck(host, verdicts, &mut stale);
}

proptest! {
    #[test]
    fn ubuntu_verdicts_kept_through_the_index_equal_a_full_check(
        hardened in prop::bool::ANY,
        steps in steps(),
    ) {
        let catalog = vdo_stigs::ubuntu::shared_catalog();
        let mut host = UnixHost::baseline_ubuntu_1804();
        if hardened {
            RemediationPlanner::default().remediate(catalog, &mut host);
        }
        let mut verdicts = catalog.verdicts(&host);
        for (i, step) in steps.iter().enumerate() {
            if let Step::Commit(changes) = step {
                let staged = Staged::apply(&mut host, changes);
                let after = staged.recheck(catalog, &verdicts);
                staged.keep();
                verdicts = after;
            }
            apply(catalog, Platform::Unix, &mut host, &mut verdicts, step);
            prop_assert_eq!(&verdicts, &catalog.verdicts(&host), "after step {} {:?}", i, step);
        }
    }

    #[test]
    fn win10_verdicts_kept_through_the_index_equal_a_full_check(
        hardened in prop::bool::ANY,
        steps in steps(),
    ) {
        let catalog = vdo_stigs::win10::catalog();
        let mut host = WindowsHost::baseline_win10();
        if hardened {
            RemediationPlanner::default().remediate(&catalog, &mut host);
        }
        let mut verdicts = catalog.verdicts(&host);
        for (i, step) in steps.iter().enumerate() {
            apply(&catalog, Platform::Windows, &mut host, &mut verdicts, step);
            prop_assert_eq!(&verdicts, &catalog.verdicts(&host), "after step {} {:?}", i, step);
        }
    }
}
