//! Host-state diffing — the forensic view of drift.
//!
//! When operations monitoring flags a violation, the first investigative
//! question is *what changed since the last known-good state*.
//! [`diff_hosts`] compares any two [`HostRead`] snapshots — owned
//! structs, store-backed views, or one of each — and enumerates every
//! difference as a typed [`HostDelta`].

use std::collections::BTreeSet;
use std::fmt;

use crate::view::HostRead;

/// One observed difference between two host snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostDelta {
    /// Package present in `after` but not installed in `before`.
    PackageInstalled(String),
    /// Package installed in `before` but not in `after`.
    PackageRemoved(String),
    /// Package installed on both sides with different versions:
    /// `(name, before, after)`. Catches silent downgrades/reinstalls.
    PackageVersionChanged(String, String, String),
    /// A config directive changed: `(path, key, before, after)`;
    /// `None` means absent on that side.
    DirectiveChanged(String, String, Option<String>, Option<String>),
    /// A file's permission bits changed: `(path, before, after)` in
    /// octal (`None` = unrecorded).
    ModeChanged(String, Option<u16>, Option<u16>),
    /// A service's enabled state changed: `(name, enabled_after)`.
    ServiceToggled(String, bool),
    /// Password storage hygiene changed (`true` = all encrypted after).
    PasswordStorageChanged(bool),
    /// A kernel parameter changed: `(key, before, after)`.
    KernelParamChanged(String, Option<String>, Option<String>),
}

impl fmt::Display for HostDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostDelta::PackageInstalled(p) => write!(f, "+ package {p}"),
            HostDelta::PackageRemoved(p) => write!(f, "- package {p}"),
            HostDelta::PackageVersionChanged(p, b, a) => {
                write!(f, "~ package {p}: {b} -> {a}")
            }
            HostDelta::DirectiveChanged(path, key, b, a) => write!(
                f,
                "~ {path} {key}: {} -> {}",
                b.as_deref().unwrap_or("<unset>"),
                a.as_deref().unwrap_or("<unset>")
            ),
            HostDelta::ModeChanged(path, b, a) => write!(
                f,
                "~ mode {path}: {} -> {}",
                b.map_or("<unset>".to_string(), |m| format!("{m:04o}")),
                a.map_or("<unset>".to_string(), |m| format!("{m:04o}"))
            ),
            HostDelta::ServiceToggled(n, on) => {
                write!(
                    f,
                    "~ service {n}: {}",
                    if *on { "enabled" } else { "disabled" }
                )
            }
            HostDelta::PasswordStorageChanged(ok) => {
                write!(
                    f,
                    "~ password storage: {}",
                    if *ok { "encrypted" } else { "CLEAR TEXT" }
                )
            }
            HostDelta::KernelParamChanged(k, b, a) => write!(
                f,
                "~ sysctl {k}: {} -> {}",
                b.as_deref().unwrap_or("<unset>"),
                a.as_deref().unwrap_or("<unset>")
            ),
        }
    }
}

/// Directives, files, and kernel parameters that the simulation models
/// and that security tooling cares about — the diff inspects these keys
/// explicitly (the simulated host does not expose raw iteration over its
/// config files, mirroring how real scanners probe known locations).
const WATCHED_DIRECTIVES: [(&str, &str); 6] = [
    ("/etc/ssh/sshd_config", "PermitEmptyPasswords"),
    ("/etc/ssh/sshd_config", "PermitRootLogin"),
    ("/etc/ssh/sshd_config", "Protocol"),
    ("/etc/ssh/sshd_config", "ClientAliveInterval"),
    ("/etc/login.defs", "ENCRYPT_METHOD"),
    ("/etc/login.defs", "PASS_MAX_DAYS"),
];

const WATCHED_FILES: [&str; 3] = ["/etc/shadow", "/etc/gshadow", "/var/log"];

const WATCHED_SERVICES: [&str; 3] = ["sshd", "rsyslog", "telnet"];

const WATCHED_KERNEL_PARAMS: [&str; 2] = ["kernel.dmesg_restrict", "fs.suid_dumpable"];

/// Enumerates the differences between any two host snapshots through the
/// [`HostRead`] trait. The two sides may be different representations
/// (e.g. an owned baseline vs. a columnar store view).
///
/// Packages are compared exhaustively; directives, file modes, services,
/// and kernel parameters are compared over the watched sets above.
///
/// ```
/// use vdo_host::{diff_hosts, HostDelta, UnixHost};
/// let before = UnixHost::baseline_ubuntu_1804();
/// let mut after = before.clone();
/// after.install_package("nis", "3.17");
/// let deltas = diff_hosts(&before, &after);
/// assert_eq!(deltas, vec![HostDelta::PackageInstalled("nis".into())]);
/// ```
#[must_use]
pub fn diff_hosts<B: HostRead + ?Sized, A: HostRead + ?Sized>(
    before: &B,
    after: &A,
) -> Vec<HostDelta> {
    let mut deltas = Vec::new();

    let b_pkgs: BTreeSet<String> = before.installed_package_names().into_iter().collect();
    let a_pkgs: BTreeSet<String> = after.installed_package_names().into_iter().collect();
    for p in a_pkgs.difference(&b_pkgs) {
        deltas.push(HostDelta::PackageInstalled(p.clone()));
    }
    for p in b_pkgs.difference(&a_pkgs) {
        deltas.push(HostDelta::PackageRemoved(p.clone()));
    }
    for p in b_pkgs.intersection(&a_pkgs) {
        let b = before.package_version(p);
        let a = after.package_version(p);
        if b != a {
            deltas.push(HostDelta::PackageVersionChanged(
                p.clone(),
                b.unwrap_or("<unknown>").to_string(),
                a.unwrap_or("<unknown>").to_string(),
            ));
        }
    }

    for (path, key) in WATCHED_DIRECTIVES {
        let b = before.directive(path, key).map(str::to_string);
        let a = after.directive(path, key).map(str::to_string);
        if b != a {
            deltas.push(HostDelta::DirectiveChanged(path.into(), key.into(), b, a));
        }
    }

    for path in WATCHED_FILES {
        let b = before.file_mode(path).map(|m| m.bits());
        let a = after.file_mode(path).map(|m| m.bits());
        if b != a {
            deltas.push(HostDelta::ModeChanged(path.into(), b, a));
        }
    }

    for name in WATCHED_SERVICES {
        let b = before.service(name).is_some_and(|s| s.enabled);
        let a = after.service(name).is_some_and(|s| s.enabled);
        if b != a {
            deltas.push(HostDelta::ServiceToggled(name.into(), a));
        }
    }

    if before.all_passwords_encrypted() != after.all_passwords_encrypted() {
        deltas.push(HostDelta::PasswordStorageChanged(
            after.all_passwords_encrypted(),
        ));
    }

    for key in WATCHED_KERNEL_PARAMS {
        let b = before.kernel_param(key).map(str::to_string);
        let a = after.kernel_param(key).map(str::to_string);
        if b != a {
            deltas.push(HostDelta::KernelParamChanged(key.into(), b, a));
        }
    }

    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::DriftInjector;
    use crate::unix::{FileMode, UnixHost};
    use crate::view::Platform;

    #[test]
    fn identical_hosts_diff_empty() {
        let h = UnixHost::baseline_ubuntu_1804();
        assert!(diff_hosts(&h, &h.clone()).is_empty());
    }

    #[test]
    fn each_change_kind_is_reported() {
        let before = UnixHost::baseline_ubuntu_1804();
        let mut after = before.clone();
        after.install_package("nis", "3.17");
        after.remove_package("sudo");
        after.write_directive("/etc/ssh/sshd_config", "PermitRootLogin", "yes");
        after.set_file_mode("/etc/shadow", FileMode::new(0o666));
        after.disable_service("rsyslog");
        after.corrupt_password_storage("admin");
        after.set_kernel_param("fs.suid_dumpable", "1");

        let deltas = diff_hosts(&before, &after);
        assert!(deltas.contains(&HostDelta::PackageInstalled("nis".into())));
        assert!(deltas.contains(&HostDelta::PackageRemoved("sudo".into())));
        assert!(deltas.iter().any(|d| matches!(
            d,
            HostDelta::DirectiveChanged(_, k, _, Some(v)) if k == "PermitRootLogin" && v == "yes"
        )));
        assert!(deltas.iter().any(|d| matches!(
            d,
            HostDelta::ModeChanged(p, Some(0o644), Some(0o666)) if p == "/etc/shadow"
        )));
        assert!(deltas.contains(&HostDelta::ServiceToggled("rsyslog".into(), false)));
        assert!(deltas.contains(&HostDelta::PasswordStorageChanged(false)));
        assert!(deltas.iter().any(|d| matches!(
            d,
            HostDelta::KernelParamChanged(k, _, Some(v)) if k == "fs.suid_dumpable" && v == "1"
        )));
    }

    #[test]
    fn drift_always_leaves_a_visible_delta() {
        // Every drift kind the injector produces must surface in the diff
        // — otherwise forensic reports would have blind spots.
        for seed in 0..40 {
            let before = UnixHost::baseline_ubuntu_1804();
            let mut after = before.clone();
            DriftInjector::new(seed).drift(&mut after, Platform::Unix, 1);
            let deltas = diff_hosts(&before, &after);
            // A drift event may be a no-op (e.g. re-installing an already
            // broken package); only assert when state actually changed.
            if before != after {
                assert!(
                    !deltas.is_empty(),
                    "seed {seed}: state changed but diff is empty"
                );
            }
        }
    }

    #[test]
    fn display_renders_readably() {
        let d = HostDelta::ModeChanged("/etc/shadow".into(), Some(0o640), Some(0o666));
        assert_eq!(d.to_string(), "~ mode /etc/shadow: 0640 -> 0666");
        let d = HostDelta::DirectiveChanged(
            "/etc/ssh/sshd_config".into(),
            "Protocol".into(),
            Some("2".into()),
            Some("1".into()),
        );
        assert_eq!(d.to_string(), "~ /etc/ssh/sshd_config Protocol: 2 -> 1");
        assert_eq!(
            HostDelta::PasswordStorageChanged(false).to_string(),
            "~ password storage: CLEAR TEXT"
        );
    }
}
