//! Canonical Ubuntu 18.04 LTS STIG requirements.
//!
//! Reusable pattern types first (the RQCODE idea: one class, many
//! findings), then the concrete catalogue. The finding set covers the
//! eight findings the D2.7 annex documents (`V-219157`, `V-219158`,
//! `V-219161`, `V-219177`, `V-219304`, `V-219318`, `V-219319`,
//! `V-219343`) plus an extended hardening set exercised by the
//! experiments.

use std::sync::OnceLock;

use vdo_core::{
    Catalog, CheckStatus, Checkable, Enforceable, EnforcementStatus, RequirementSpec, Severity,
};
use vdo_host::{FileMode, HostRead, HostWrite, UnixHost};

use crate::sweep::{catalog_of, CheckOp, CompiledCheck};

/// Package presence/absence pattern — the literal counterpart of
/// `rqcode.stigs.ubuntu.UbuntuPackagePattern(name, mustBeInstalled)`.
///
/// ```
/// use vdo_core::{Checkable, CheckStatus, Enforceable};
/// use vdo_host::UnixHost;
/// use vdo_stigs::ubuntu::UbuntuPackagePattern;
///
/// let no_nis = UbuntuPackagePattern::new("nis", false);
/// let mut host = UnixHost::new("h");
/// host.install_package("nis", "3.17");
/// assert_eq!(no_nis.check(&host), CheckStatus::Fail);
/// no_nis.enforce(&mut host);
/// assert_eq!(no_nis.check(&host), CheckStatus::Pass);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UbuntuPackagePattern {
    name: String,
    must_be_installed: bool,
}

impl UbuntuPackagePattern {
    /// Creates the pattern: `must_be_installed = false` prohibits the
    /// package, `true` requires it.
    #[must_use]
    pub fn new(name: impl Into<String>, must_be_installed: bool) -> Self {
        UbuntuPackagePattern {
            name: name.into(),
            must_be_installed,
        }
    }

    /// The package this pattern governs.
    #[must_use]
    pub fn package_name(&self) -> &str {
        &self.name
    }

    /// `true` if the package must be present, `false` if prohibited.
    #[must_use]
    pub fn must_be_installed(&self) -> bool {
        self.must_be_installed
    }
}

impl<H: HostRead> Checkable<H> for UbuntuPackagePattern {
    fn check(&self, host: &H) -> CheckStatus {
        CheckStatus::from(host.is_package_installed(&self.name) == self.must_be_installed)
    }
}

impl<H: HostWrite> Enforceable<H> for UbuntuPackagePattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        if self.must_be_installed {
            if !host.is_package_installed(&self.name) {
                host.install_package(&self.name, "stig-enforced");
            }
        } else {
            host.remove_package(&self.name);
        }
        EnforcementStatus::Success
    }
}

/// Configuration-directive pattern: `key` in `path` must equal
/// `expected` (sshd_config, login.defs, PAM files…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectivePattern {
    path: String,
    key: String,
    expected: String,
}

impl DirectivePattern {
    /// Creates the pattern.
    #[must_use]
    pub fn new(
        path: impl Into<String>,
        key: impl Into<String>,
        expected: impl Into<String>,
    ) -> Self {
        DirectivePattern {
            path: path.into(),
            key: key.into(),
            expected: expected.into(),
        }
    }

    /// The config file this pattern inspects.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The directive key.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The required value.
    #[must_use]
    pub fn expected(&self) -> &str {
        &self.expected
    }
}

impl<H: HostRead> Checkable<H> for DirectivePattern {
    fn check(&self, host: &H) -> CheckStatus {
        match host.directive(&self.path, &self.key) {
            Some(v) => CheckStatus::from(v.eq_ignore_ascii_case(&self.expected)),
            None => CheckStatus::Fail,
        }
    }
}

impl<H: HostWrite> Enforceable<H> for DirectivePattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        host.write_directive(&self.path, &self.key, &self.expected);
        EnforcementStatus::Success
    }
}

/// File-permission pattern: `path` must be mode `max` or more
/// restrictive. A file missing from the simulation is `Incomplete` (the
/// checker cannot decide), and enforcement creates the mode record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileModePattern {
    path: String,
    max: FileMode,
}

impl FileModePattern {
    /// Creates the pattern.
    #[must_use]
    pub fn new(path: impl Into<String>, max: FileMode) -> Self {
        FileModePattern {
            path: path.into(),
            max,
        }
    }

    /// The path this pattern inspects.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The most permissive acceptable mode.
    #[must_use]
    pub fn max_mode(&self) -> FileMode {
        self.max
    }
}

impl<H: HostRead> Checkable<H> for FileModePattern {
    fn check(&self, host: &H) -> CheckStatus {
        match host.file_mode(&self.path) {
            Some(mode) => CheckStatus::from(mode.at_most(self.max)),
            None => CheckStatus::Incomplete,
        }
    }
}

impl<H: HostWrite> Enforceable<H> for FileModePattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        host.set_file_mode(&self.path, self.max);
        EnforcementStatus::Success
    }
}

/// Password-storage pattern for `V-219177`: every account's password must
/// be stored encrypted and `login.defs` must select SHA-512 hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncryptedPasswordsPattern;

impl EncryptedPasswordsPattern {
    /// The `(path, key)` of the directive that selects the hashing
    /// method; the pattern reads it besides the account table.
    pub const HASH_DIRECTIVE: (&'static str, &'static str) = ("/etc/login.defs", "ENCRYPT_METHOD");
}

impl<H: HostRead> Checkable<H> for EncryptedPasswordsPattern {
    fn check(&self, host: &H) -> CheckStatus {
        let (path, key) = Self::HASH_DIRECTIVE;
        let hashing_ok = host
            .directive(path, key)
            .is_some_and(|v| v.eq_ignore_ascii_case("SHA512"));
        CheckStatus::from(host.all_passwords_encrypted() && hashing_ok)
    }
}

impl<H: HostWrite> Enforceable<H> for EncryptedPasswordsPattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        let (path, key) = Self::HASH_DIRECTIVE;
        host.encrypt_all_passwords();
        host.write_directive(path, key, "SHA512");
        EnforcementStatus::Success
    }
}

/// Service-state pattern: a service must (not) be enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServicePattern {
    name: String,
    must_be_enabled: bool,
}

impl ServicePattern {
    /// Creates the pattern.
    #[must_use]
    pub fn new(name: impl Into<String>, must_be_enabled: bool) -> Self {
        ServicePattern {
            name: name.into(),
            must_be_enabled,
        }
    }

    /// The service this pattern governs.
    #[must_use]
    pub fn service_name(&self) -> &str {
        &self.name
    }

    /// `true` if the service must be enabled, `false` if prohibited.
    #[must_use]
    pub fn must_be_enabled(&self) -> bool {
        self.must_be_enabled
    }
}

impl<H: HostRead> Checkable<H> for ServicePattern {
    fn check(&self, host: &H) -> CheckStatus {
        let enabled = host.service(&self.name).is_some_and(|s| s.enabled);
        CheckStatus::from(enabled == self.must_be_enabled)
    }
}

impl<H: HostWrite> Enforceable<H> for ServicePattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        if self.must_be_enabled {
            host.enable_service(&self.name);
        } else {
            host.disable_service(&self.name);
        }
        EnforcementStatus::Success
    }
}

const STIG_NAME: &str = "Canonical Ubuntu 18.04 LTS STIG";
const STIG_DATE: &str = "2021-06-16";
const PACKAGE: &str = "rqcode.stigs.ubuntu";

fn spec(
    id: &str,
    title: &str,
    severity: Severity,
    description: &str,
    check: &str,
    fix: &str,
) -> RequirementSpec {
    RequirementSpec::builder(id)
        .title(title)
        .severity(severity)
        .stig(STIG_NAME)
        .date(STIG_DATE)
        .rule_id(format!("SV-{}_rule", id.trim_start_matches("V-")))
        .description(description)
        .check_text(check)
        .fix_text(fix)
        .build()
}

/// The Ubuntu catalogue of [`catalog`], built once per process. A
/// catalogue is immutable once built, so every holder of this reference
/// (say, each tenant of a service) shares one copy.
#[must_use]
pub fn shared_catalog() -> &'static Catalog<UnixHost> {
    static CATALOG: OnceLock<Catalog<UnixHost>> = OnceLock::new();
    CATALOG.get_or_init(catalog)
}

/// The Ubuntu 18.04 STIG rule table (D2.7 findings + extended hardening
/// set): every finding's spec and op, written once. [`catalog`], its
/// key index and the fleet sweep all read these rows.
#[must_use]
pub fn rules() -> Vec<CompiledCheck> {
    use CheckOp as Op;
    vec![
        // ---- The eight findings documented in the D2.7 annex ----
        CompiledCheck::new(
            spec(
                "V-219157",
                "The Ubuntu operating system must not have the NIS package installed",
                Severity::Medium,
                "Removing the Network Information Service (NIS) package decreases the risk of \
                 the accidental (or intentional) activation of NIS or NIS+ services.",
                "Run: dpkg -l | grep nis — no output expected.",
                "Run: sudo apt-get remove nis",
            ),
            Op::Package(UbuntuPackagePattern::new("nis", false)),
        ),
        CompiledCheck::new(
            spec(
                "V-219158",
                "The Ubuntu operating system must not have the rsh-server package installed",
                Severity::High,
                "The rsh-server service provides an unencrypted remote access service that does \
                 not provide for the confidentiality and integrity of user passwords or the \
                 remote session.",
                "Run: dpkg -l | grep rsh-server — no output expected.",
                "Run: sudo apt-get remove rsh-server",
            ),
            Op::Package(UbuntuPackagePattern::new("rsh-server", false)),
        ),
        CompiledCheck::new(
            spec(
                "V-219161",
                "The Ubuntu operating system must not have the telnet daemon installed",
                Severity::High,
                "Remote access services that lack automated control capabilities increase risk. \
                 Unencrypted telnet sessions expose credentials to interception.",
                "Run: dpkg -l | grep telnetd — no output expected.",
                "Run: sudo apt-get remove telnetd",
            ),
            Op::Package(UbuntuPackagePattern::new("telnetd", false)),
        ),
        CompiledCheck::new(
            spec(
                "V-219177",
                "The Ubuntu operating system must store only encrypted representations of passwords",
                Severity::Medium,
                "Passwords need to be protected at all times, and encryption is the standard \
                 method for protecting passwords. Unencrypted passwords are easily compromised.",
                "Verify ENCRYPT_METHOD SHA512 in /etc/login.defs and no clear-text entries in \
                 /etc/shadow.",
                "Set ENCRYPT_METHOD SHA512 in /etc/login.defs and re-hash stored credentials.",
            ),
            Op::EncryptedPasswords(EncryptedPasswordsPattern),
        ),
        CompiledCheck::new(
            spec(
                "V-219304",
                "The Ubuntu operating system must have the vlock package installed for session locking",
                Severity::Medium,
                "A session lock lets users secure their console session when stepping away without \
                 logging out; vlock provides the manual lock capability.",
                "Run: dpkg -l | grep vlock — package must be listed as installed.",
                "Run: sudo apt-get install vlock",
            ),
            Op::Package(UbuntuPackagePattern::new("vlock", true)),
        ),
        CompiledCheck::new(
            spec(
                "V-219318",
                "The Ubuntu operating system must have the smart-card PAM module installed for \
                 multifactor remote authentication",
                Severity::Medium,
                "Using an authentication device separate from the information system ensures that \
                 a system compromise does not affect credentials stored on the device (e.g. DoD \
                 Common Access Card).",
                "Run: dpkg -l | grep libpam-pkcs11 — package must be installed.",
                "Run: sudo apt-get install libpam-pkcs11",
            ),
            Op::Package(UbuntuPackagePattern::new("libpam-pkcs11", true)),
        ),
        CompiledCheck::new(
            spec(
                "V-219319",
                "The Ubuntu operating system must accept Personal Identity Verification (PIV) \
                 credentials",
                Severity::Medium,
                "PIV credentials facilitate standardization and reduce the risk of unauthorized \
                 access; opensc-pkcs11 supplies the PIV driver stack.",
                "Run: dpkg -l | grep opensc-pkcs11 — package must be installed.",
                "Run: sudo apt-get install opensc-pkcs11",
            ),
            Op::Package(UbuntuPackagePattern::new("opensc-pkcs11", true)),
        ),
        CompiledCheck::new(
            spec(
                "V-219343",
                "The Ubuntu operating system must notify designated personnel if baseline \
                 configurations are changed in an unauthorized manner (security function \
                 verification)",
                Severity::Medium,
                "Without verification of the security functions, security functions may not \
                 operate correctly and the failure may go unnoticed; AIDE provides the \
                 integrity-verification capability.",
                "Run: dpkg -l | grep aide — package must be installed.",
                "Run: sudo apt-get install aide",
            ),
            Op::Package(UbuntuPackagePattern::new("aide", true)),
        ),

        // ---- Extended hardening set (exercised by the experiments) ----
        CompiledCheck::new(
            spec(
                "V-219166",
                "The Ubuntu operating system must not allow unattended or automatic login via SSH \
                 with empty passwords",
                Severity::High,
                "Empty-password SSH logins defeat authentication entirely.",
                "Verify PermitEmptyPasswords no in /etc/ssh/sshd_config.",
                "Set PermitEmptyPasswords no and restart sshd.",
            ),
            Op::Directive(DirectivePattern::new("/etc/ssh/sshd_config", "PermitEmptyPasswords", "no")),
        ),
        CompiledCheck::new(
            spec(
                "V-219167",
                "The Ubuntu operating system must not permit direct root logins over SSH",
                Severity::Medium,
                "Direct root logins remove individual accountability for privileged actions.",
                "Verify PermitRootLogin no in /etc/ssh/sshd_config.",
                "Set PermitRootLogin no and restart sshd.",
            ),
            Op::Directive(DirectivePattern::new("/etc/ssh/sshd_config", "PermitRootLogin", "no")),
        ),
        CompiledCheck::new(
            spec(
                "V-219165",
                "The Ubuntu operating system must use SSH protocol 2",
                Severity::High,
                "SSH protocol 1 has known cryptographic weaknesses.",
                "Verify Protocol 2 in /etc/ssh/sshd_config.",
                "Set Protocol 2 and restart sshd.",
            ),
            Op::Directive(DirectivePattern::new("/etc/ssh/sshd_config", "Protocol", "2")),
        ),
        CompiledCheck::new(
            spec(
                "V-219188",
                "The Ubuntu operating system must terminate idle SSH sessions within 10 minutes",
                Severity::Medium,
                "Idle sessions left unlocked are an opportunity for session hijacking.",
                "Verify ClientAliveInterval 600 in /etc/ssh/sshd_config.",
                "Set ClientAliveInterval 600 and restart sshd.",
            ),
            Op::Directive(DirectivePattern::new("/etc/ssh/sshd_config", "ClientAliveInterval", "600")),
        ),
        CompiledCheck::new(
            spec(
                "V-219201",
                "The /etc/shadow file must be mode 0640 or less permissive",
                Severity::Medium,
                "The shadow file contains password hashes; lax permissions expose them to \
                 offline cracking.",
                "Run: stat -c %a /etc/shadow — must be 640 or stricter.",
                "Run: sudo chmod 0640 /etc/shadow",
            ),
            Op::FileMode(FileModePattern::new("/etc/shadow", FileMode::new(0o640))),
        ),
        CompiledCheck::new(
            spec(
                "V-219149",
                "The Ubuntu operating system must have the rsyslog service enabled",
                Severity::Medium,
                "Without centralized logging, audit trails required for incident analysis are \
                 incomplete.",
                "Run: systemctl is-enabled rsyslog — must report enabled.",
                "Run: sudo systemctl enable --now rsyslog",
            ),
            Op::Service(ServicePattern::new("rsyslog", true)),
        ),
        CompiledCheck::new(
            spec(
                "V-219155",
                "The Ubuntu operating system must restrict kernel message buffer access",
                Severity::Low,
                "dmesg output can leak kernel addresses used to defeat ASLR.",
                "Run: sysctl kernel.dmesg_restrict — must be 1.",
                "Set kernel.dmesg_restrict = 1 in /etc/sysctl.d and reload.",
            ),
            Op::KernelParam(KernelParamPattern::new("kernel.dmesg_restrict", "1")),
        ),
        CompiledCheck::new(
            spec(
                "V-219156",
                "The Ubuntu operating system must disable core dumps of setuid programs",
                Severity::Low,
                "Core dumps of privileged processes can contain credential material.",
                "Run: sysctl fs.suid_dumpable — must be 0.",
                "Set fs.suid_dumpable = 0 in /etc/sysctl.d and reload.",
            ),
            Op::KernelParam(KernelParamPattern::new("fs.suid_dumpable", "0")),
        ),
        CompiledCheck::new(
            spec(
                "V-219159",
                "The Ubuntu operating system must not have the rsh-client package installed",
                Severity::Medium,
                "rsh-client transmits credentials in clear text.",
                "Run: dpkg -l | grep rsh-client — no output expected.",
                "Run: sudo apt-get remove rsh-client",
            ),
            Op::Package(UbuntuPackagePattern::new("rsh-client", false)),
        ),
        CompiledCheck::new(
            spec(
                "V-219147",
                "The Ubuntu operating system must have the auditd package installed",
                Severity::Medium,
                "Without audit record generation, security-relevant events on the system \
                 cannot be attributed or reconstructed.",
                "Run: dpkg -l | grep auditd — package must be installed.",
                "Run: sudo apt-get install auditd",
            ),
            Op::Package(UbuntuPackagePattern::new("auditd", true)),
        ),
        CompiledCheck::new(
            spec(
                "V-219180",
                "The Ubuntu operating system must enforce a 60-day maximum password lifetime",
                Severity::Low,
                "Passwords used beyond their lifetime give adversaries an extended window to \
                 crack and reuse them.",
                "Verify PASS_MAX_DAYS 60 in /etc/login.defs.",
                "Set PASS_MAX_DAYS 60 in /etc/login.defs.",
            ),
            Op::Directive(DirectivePattern::new("/etc/login.defs", "PASS_MAX_DAYS", "60")),
        ),
        CompiledCheck::new(
            spec(
                "V-219151",
                "The Ubuntu operating system must have the sudo package installed for \
                 privilege delegation",
                Severity::Medium,
                "Direct root usage removes individual accountability; sudo provides audited \
                 privilege delegation.",
                "Run: dpkg -l | grep sudo — package must be installed.",
                "Run: apt-get install sudo",
            ),
            Op::Package(UbuntuPackagePattern::new("sudo", true)),
        ),
    ]
}

/// Builds the Ubuntu 18.04 STIG catalogue from [`rules`], all
/// enforceable.
#[must_use]
pub fn catalog() -> Catalog<UnixHost> {
    catalog_of(PACKAGE, rules())
}

/// Kernel-parameter pattern: a sysctl key must hold an exact value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelParamPattern {
    key: String,
    expected: String,
}

impl KernelParamPattern {
    /// Creates the pattern.
    #[must_use]
    pub fn new(key: impl Into<String>, expected: impl Into<String>) -> Self {
        KernelParamPattern {
            key: key.into(),
            expected: expected.into(),
        }
    }

    /// The sysctl key this pattern inspects.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The required value.
    #[must_use]
    pub fn expected(&self) -> &str {
        &self.expected
    }
}

impl<H: HostRead> Checkable<H> for KernelParamPattern {
    fn check(&self, host: &H) -> CheckStatus {
        match host.kernel_param(&self.key) {
            Some(v) => CheckStatus::from(v == self.expected),
            None => CheckStatus::Fail,
        }
    }
}

impl<H: HostWrite> Enforceable<H> for KernelParamPattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        host.set_kernel_param(&self.key, &self.expected);
        EnforcementStatus::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_core::{PlannerConfig, PlannerOutcome, RemediationPlanner};

    #[test]
    fn package_pattern_prohibition() {
        let p = UbuntuPackagePattern::new("nis", false);
        let mut h = UnixHost::new("t");
        assert_eq!(
            p.check(&h),
            CheckStatus::Pass,
            "absent prohibited package passes"
        );
        h.install_package("nis", "3.17");
        assert_eq!(p.check(&h), CheckStatus::Fail);
        assert_eq!(p.enforce(&mut h), EnforcementStatus::Success);
        assert_eq!(p.check(&h), CheckStatus::Pass);
    }

    #[test]
    fn package_pattern_requirement() {
        let p = UbuntuPackagePattern::new("vlock", true);
        let mut h = UnixHost::new("t");
        assert_eq!(p.check(&h), CheckStatus::Fail);
        p.enforce(&mut h);
        assert_eq!(p.check(&h), CheckStatus::Pass);
        assert_eq!(h.package_version("vlock"), Some("stig-enforced"));
        // Enforcing an already-installed package must not clobber version.
        h.install_package("vlock", "2.2.2");
        p.enforce(&mut h);
        assert_eq!(h.package_version("vlock"), Some("2.2.2"));
    }

    #[test]
    fn directive_pattern_case_insensitive_value() {
        let p = DirectivePattern::new("/etc/ssh/sshd_config", "PermitRootLogin", "no");
        let mut h = UnixHost::new("t");
        assert_eq!(p.check(&h), CheckStatus::Fail, "missing directive fails");
        h.write_directive("/etc/ssh/sshd_config", "permitrootlogin", "NO");
        assert_eq!(p.check(&h), CheckStatus::Pass);
        h.write_directive("/etc/ssh/sshd_config", "PermitRootLogin", "yes");
        assert_eq!(p.check(&h), CheckStatus::Fail);
        p.enforce(&mut h);
        assert_eq!(p.check(&h), CheckStatus::Pass);
    }

    #[test]
    fn file_mode_pattern_incomplete_when_unknown() {
        let p = FileModePattern::new("/etc/shadow", FileMode::new(0o640));
        let mut h = UnixHost::new("t");
        assert_eq!(p.check(&h), CheckStatus::Incomplete);
        h.set_file_mode("/etc/shadow", FileMode::new(0o644));
        assert_eq!(p.check(&h), CheckStatus::Fail);
        p.enforce(&mut h);
        assert_eq!(p.check(&h), CheckStatus::Pass);
        assert_eq!(h.file_mode("/etc/shadow"), Some(FileMode::new(0o640)));
    }

    #[test]
    fn encrypted_passwords_pattern() {
        let p = EncryptedPasswordsPattern;
        let mut h = UnixHost::new("t");
        h.add_account("a", 1000, false, true);
        assert_eq!(p.check(&h), CheckStatus::Fail, "hashing method not set");
        h.write_directive("/etc/login.defs", "ENCRYPT_METHOD", "SHA512");
        assert_eq!(p.check(&h), CheckStatus::Pass);
        h.corrupt_password_storage("a");
        assert_eq!(p.check(&h), CheckStatus::Fail);
        p.enforce(&mut h);
        assert_eq!(p.check(&h), CheckStatus::Pass);
    }

    #[test]
    fn service_pattern() {
        let p = ServicePattern::new("rsyslog", true);
        let mut h = UnixHost::new("t");
        assert_eq!(p.check(&h), CheckStatus::Fail);
        p.enforce(&mut h);
        assert_eq!(p.check(&h), CheckStatus::Pass);
        let off = ServicePattern::new("telnet", false);
        assert_eq!(
            off.check(&h),
            CheckStatus::Pass,
            "unknown unit counts as disabled"
        );
    }

    #[test]
    fn kernel_param_pattern() {
        let p = KernelParamPattern::new("fs.suid_dumpable", "0");
        let mut h = UnixHost::new("t");
        assert_eq!(p.check(&h), CheckStatus::Fail);
        p.enforce(&mut h);
        assert_eq!(p.check(&h), CheckStatus::Pass);
    }

    #[test]
    fn catalog_shape() {
        let cat = catalog();
        assert!(cat.len() >= 20, "8 annex findings + extended set");
        assert!(cat.iter().all(|e| e.is_enforceable()));
        assert!(cat.find("V-219157").is_some());
        assert!(cat.find("V-219343").is_some());
        let inv = cat.inventory();
        let stats = inv.values().next().unwrap();
        assert_eq!(stats.total, cat.len());
    }

    #[test]
    fn baseline_host_becomes_compliant() {
        let cat = catalog();
        let mut host = UnixHost::baseline_ubuntu_1804();
        let before: Vec<_> = cat
            .check_all(&host)
            .into_iter()
            .filter(|(_, v)| !v.is_pass())
            .map(|(e, _)| e.spec().finding_id().to_string())
            .collect();
        assert!(!before.is_empty(), "stock baseline must violate something");
        let run = RemediationPlanner::new(PlannerConfig::default()).run(&cat, &mut host);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        assert!(run.report.summary().remediated >= before.len() - 1);
        assert!(!host.is_package_installed("telnetd"));
        assert!(host.is_package_installed("aide"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use vdo_host::{DriftInjector, Platform};

        proptest! {
            /// After arbitrary drift, one planner run restores compliance,
            /// and enforcement is idempotent (a second run changes nothing).
            #[test]
            fn enforcement_converges_and_is_idempotent(seed in 0u64..500, events in 0usize..12) {
                let cat = catalog();
                let mut host = UnixHost::baseline_ubuntu_1804();
                DriftInjector::new(seed).drift(&mut host, Platform::Unix, events);
                let planner = RemediationPlanner::new(PlannerConfig::default());
                let first = planner.run(&cat, &mut host);
                prop_assert_eq!(first.outcome, PlannerOutcome::Compliant);
                let snapshot = host.clone();
                let second = planner.run(&cat, &mut host);
                prop_assert_eq!(second.outcome, PlannerOutcome::Compliant);
                prop_assert_eq!(second.enforcements, 0, "second run must be a no-op");
                prop_assert_eq!(host, snapshot);
            }
        }
    }
}
