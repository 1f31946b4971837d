//! Windows 10 STIG requirements.
//!
//! The Java catalogue's `rqcode.patterns.win10` hierarchy
//! (`AuditPolicyRequirement` → `AccountManagementRequirement` /
//! `LogonLogoffRequirement` / `PrivilegeUseRequirement` → concrete
//! `V-634xx` classes) flattens in Rust into one reusable
//! [`AuditPolicyPattern`] parameterised by category, subcategory, and the
//! required [`AuditSetting`]; the inheritance levels become constructor
//! helpers. Where the Java implementation forks `auditpol.exe`, this one
//! queries/mutates the simulated [`WindowsHost`] audit-policy table —
//! the same check/enforce code path, no process spawning.

use vdo_core::{
    Catalog, CheckStatus, Checkable, Enforceable, EnforcementStatus, RequirementSpec, Severity,
};
use vdo_host::{AuditSetting, HostRead, HostWrite, RegistryValue, WindowsHost};

use crate::sweep::{catalog_of, CheckOp, CompiledCheck};

/// Audit-policy requirement: the subcategory must audit at least the
/// required success/failure events.
///
/// ```
/// use vdo_core::{Checkable, CheckStatus, Enforceable};
/// use vdo_host::{AuditSetting, WindowsHost};
/// use vdo_stigs::win10::AuditPolicyPattern;
///
/// let req = AuditPolicyPattern::user_account_management(AuditSetting::FAILURE);
/// let mut host = WindowsHost::new("ws");
/// assert_eq!(req.check(&host), CheckStatus::Fail);
/// req.enforce(&mut host);
/// assert_eq!(req.check(&host), CheckStatus::Pass);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditPolicyPattern {
    category: String,
    subcategory: String,
    required: AuditSetting,
}

impl AuditPolicyPattern {
    /// General constructor.
    #[must_use]
    pub fn new(
        category: impl Into<String>,
        subcategory: impl Into<String>,
        required: AuditSetting,
    ) -> Self {
        AuditPolicyPattern {
            category: category.into(),
            subcategory: subcategory.into(),
            required,
        }
    }

    /// `Account Management / User Account Management` — the
    /// `UserAccountManagementRequirement` pattern.
    #[must_use]
    pub fn user_account_management(required: AuditSetting) -> Self {
        AuditPolicyPattern::new("Account Management", "User Account Management", required)
    }

    /// `Logon/Logoff / Logon` — the `LogonRequirement` pattern.
    #[must_use]
    pub fn logon(required: AuditSetting) -> Self {
        AuditPolicyPattern::new("Logon/Logoff", "Logon", required)
    }

    /// `Privilege Use / Sensitive Privilege Use` — the
    /// `SensitivePrivilegeUseRequirement` pattern.
    #[must_use]
    pub fn sensitive_privilege_use(required: AuditSetting) -> Self {
        AuditPolicyPattern::new("Privilege Use", "Sensitive Privilege Use", required)
    }

    /// Audit category (e.g. `"Account Management"`).
    #[must_use]
    pub fn category(&self) -> &str {
        &self.category
    }

    /// Audit subcategory (e.g. `"User Account Management"`).
    #[must_use]
    pub fn subcategory(&self) -> &str {
        &self.subcategory
    }

    /// Required setting.
    #[must_use]
    pub fn required(&self) -> AuditSetting {
        self.required
    }
}

impl<H: HostRead> Checkable<H> for AuditPolicyPattern {
    fn check(&self, host: &H) -> CheckStatus {
        let current = host.audit_setting(&self.category, &self.subcategory);
        CheckStatus::from(current.covers(self.required))
    }
}

impl<H: HostWrite> Enforceable<H> for AuditPolicyPattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        // Union with the current setting: enforcing "audit failures" must
        // not disable success auditing someone else required.
        let current = host.audit_setting(&self.category, &self.subcategory);
        host.set_audit(
            &self.category,
            &self.subcategory,
            current.union(self.required),
        );
        EnforcementStatus::Success
    }
}

/// Registry-value requirement: a named value under a key must equal an
/// expected DWORD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryDwordPattern {
    key: String,
    name: String,
    expected: u32,
}

impl RegistryDwordPattern {
    /// Creates the pattern.
    #[must_use]
    pub fn new(key: impl Into<String>, name: impl Into<String>, expected: u32) -> Self {
        RegistryDwordPattern {
            key: key.into(),
            name: name.into(),
            expected,
        }
    }

    /// Registry key path (e.g. `HKLM\...\Policies\System`).
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Value name under the key.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected DWORD payload.
    #[must_use]
    pub fn expected(&self) -> u32 {
        self.expected
    }
}

impl<H: HostRead> Checkable<H> for RegistryDwordPattern {
    fn check(&self, host: &H) -> CheckStatus {
        match host.registry_value(&self.key, &self.name) {
            Some(v) => CheckStatus::from(v.as_dword() == Some(self.expected)),
            None => CheckStatus::Fail,
        }
    }
}

impl<H: HostWrite> Enforceable<H> for RegistryDwordPattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        host.set_registry_value(&self.key, &self.name, RegistryValue::Dword(self.expected));
        EnforcementStatus::Success
    }
}

/// Account-lockout requirement: threshold must be non-zero and at most
/// `max_attempts`, with a minimum lockout duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockoutPolicyPattern {
    max_attempts: u32,
    min_duration_minutes: u32,
}

impl LockoutPolicyPattern {
    /// Creates the pattern (STIG default: 3 attempts, 15 minutes).
    #[must_use]
    pub fn new(max_attempts: u32, min_duration_minutes: u32) -> Self {
        LockoutPolicyPattern {
            max_attempts,
            min_duration_minutes,
        }
    }

    /// Maximum tolerated failed-attempt threshold.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Minimum required lockout duration in minutes.
    #[must_use]
    pub fn min_duration_minutes(&self) -> u32 {
        self.min_duration_minutes
    }
}

impl<H: HostRead> Checkable<H> for LockoutPolicyPattern {
    fn check(&self, host: &H) -> CheckStatus {
        let t = host.lockout_threshold();
        let ok = t != 0
            && t <= self.max_attempts
            && host.lockout_duration_minutes() >= self.min_duration_minutes;
        CheckStatus::from(ok)
    }
}

impl<H: HostWrite> Enforceable<H> for LockoutPolicyPattern {
    fn enforce(&self, host: &mut H) -> EnforcementStatus {
        host.set_lockout_threshold(self.max_attempts);
        if host.lockout_duration_minutes() < self.min_duration_minutes {
            host.set_lockout_duration_minutes(self.min_duration_minutes);
        }
        EnforcementStatus::Success
    }
}

const STIG_NAME: &str = "Windows 10 STIG";
const STIG_DATE: &str = "2016-10-28";
const PACKAGE: &str = "rqcode.stigs.win10";

fn audit_spec(id: &str, title: &str, subcat_doc: &str) -> RequirementSpec {
    RequirementSpec::builder(id)
        .title(title)
        .severity(Severity::Medium)
        .stig(STIG_NAME)
        .date(STIG_DATE)
        .rule_id(format!("SV-{}r1_rule", id.trim_start_matches("V-")))
        .description(format!(
            "Maintaining an audit trail of system activity logs can help identify \
             configuration errors, troubleshoot service disruptions, and analyze compromises \
             that have occurred, as well as detect attacks. {subcat_doc}"
        ))
        .check_text("Run: auditpol /get /category:* and verify the subcategory setting.")
        .fix_text("Configure the policy via auditpol /set (or group policy).")
        .build()
}

/// The Windows 10 STIG rule table: the six audit-policy findings of the
/// D2.7 annex plus lockout and registry hardening entries, each spec and
/// op written once. [`catalog`], the fleet sweep and [`full_guide`] all
/// read these rows.
#[must_use]
pub fn rules() -> Vec<CompiledCheck> {
    use CheckOp as Op;
    vec![
        CompiledCheck::new(
            audit_spec(
                "V-63447",
                "The system must be configured to audit Account Management - User Account \
                 Management successes",
                "User Account Management records events such as creating, changing, deleting, \
                 renaming, disabling, or enabling user accounts.",
            ),
            Op::Audit(AuditPolicyPattern::user_account_management(
                AuditSetting::SUCCESS,
            )),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63449",
                "The system must be configured to audit Account Management - User Account \
                 Management failures",
                "User Account Management records events such as creating, changing, deleting, \
                 renaming, disabling, or enabling user accounts.",
            ),
            Op::Audit(AuditPolicyPattern::user_account_management(
                AuditSetting::FAILURE,
            )),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63463",
                "The system must be configured to audit Logon/Logoff - Logon failures",
                "Logon records user logons; failed interactive logons indicate credential attacks.",
            ),
            Op::Audit(AuditPolicyPattern::logon(AuditSetting::FAILURE)),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63467",
                "The system must be configured to audit Logon/Logoff - Logon successes",
                "Logon records user logons; successful logons establish the audit trail baseline.",
            ),
            Op::Audit(AuditPolicyPattern::logon(AuditSetting::SUCCESS)),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63483",
                "The system must be configured to audit Privilege Use - Sensitive Privilege Use \
                 failures",
                "Sensitive Privilege Use records events related to use of sensitive privileges, \
                 such as \"Act as part of the operating system\" or \"Debug programs\".",
            ),
            Op::Audit(AuditPolicyPattern::sensitive_privilege_use(
                AuditSetting::FAILURE,
            )),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63487",
                "The system must be configured to audit Privilege Use - Sensitive Privilege Use \
                 successes",
                "Sensitive Privilege Use records events related to use of sensitive privileges, \
                 such as \"Act as part of the operating system\" or \"Debug programs\".",
            ),
            Op::Audit(AuditPolicyPattern::sensitive_privilege_use(
                AuditSetting::SUCCESS,
            )),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63431",
                "The system must be configured to audit Account Logon - Credential Validation \
                 failures",
                "Credential Validation records results of validation tests on credentials \
                 submitted for user account logon requests.",
            ),
            Op::Audit(AuditPolicyPattern::new(
                "Account Logon",
                "Credential Validation",
                AuditSetting::FAILURE,
            )),
        ),
        CompiledCheck::new(
            audit_spec(
                "V-63443",
                "The system must be configured to audit Logon/Logoff - Account Lockout events",
                "Account Lockout records events when an account fails to log on and is locked \
                 out — the direct signal of password-guessing attacks.",
            ),
            Op::Audit(AuditPolicyPattern::new(
                "Logon/Logoff",
                "Account Lockout",
                AuditSetting::BOTH,
            )),
        ),
        CompiledCheck::new(
            RequirementSpec::builder("V-63405")
                .title(
                    "Windows 10 account lockout threshold must be configured to 3 or fewer \
                    invalid logon attempts",
                )
                .severity(Severity::Medium)
                .stig(STIG_NAME)
                .date(STIG_DATE)
                .description(
                    "The account lockout feature, when enabled, prevents brute-force password \
                     attacks on the system.",
                )
                .check_text(
                    "Verify Account lockout threshold is 1-3 attempts and duration ≥ 15 min.",
                )
                .fix_text("Configure the lockout policy under Account Policies.")
                .build(),
            Op::Lockout(LockoutPolicyPattern::new(3, 15)),
        ),
        CompiledCheck::new(
            RequirementSpec::builder("V-63321")
                .title("User Account Control must be enabled (EnableLUA)")
                .severity(Severity::High)
                .stig(STIG_NAME)
                .date(STIG_DATE)
                .description(
                    "UAC mediates privilege elevation; disabling it removes the consent \
                     boundary between standard and administrative operations.",
                )
                .check_text(r"Verify EnableLUA = 1 under HKLM\...\Policies\System.")
                .fix_text("Set the EnableLUA registry value to 1.")
                .build(),
            Op::RegistryDword(RegistryDwordPattern::new(
                r"HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Policies\System",
                "EnableLUA",
                1,
            )),
        ),
    ]
}

/// Builds the Windows 10 STIG catalogue from [`rules`], all enforceable.
#[must_use]
pub fn catalog() -> Catalog<WindowsHost> {
    catalog_of(PACKAGE, rules())
}

/// The whole Windows 10 guide as a single composite requirement — the
/// counterpart of the Java
/// `Windows10SecurityTechnicalImplementationGuide.allSTIGs()` aggregate:
/// checking it checks every finding of [`rules`], enforcing it hardens
/// the host in one call.
///
/// ```
/// use vdo_core::{Checkable, CheckStatus, Enforceable};
/// use vdo_host::WindowsHost;
///
/// let guide = vdo_stigs::win10::full_guide();
/// let mut host = WindowsHost::baseline_win10();
/// assert_eq!(guide.check(&host), CheckStatus::Fail);
/// guide.enforce(&mut host);
/// assert_eq!(guide.check(&host), CheckStatus::Pass);
/// ```
#[must_use]
pub fn full_guide() -> vdo_core::composite::EnforceAll<WindowsHost> {
    rules()
        .iter()
        .fold(vdo_core::composite::EnforceAll::new(), |guide, rule| {
            guide.with(rule.op().clone())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_core::{PlannerConfig, PlannerOutcome, RemediationPlanner};

    #[test]
    fn audit_pattern_check_covers_semantics() {
        let req = AuditPolicyPattern::logon(AuditSetting::FAILURE);
        let mut host = WindowsHost::new("t");
        assert_eq!(req.check(&host), CheckStatus::Fail);
        host.audit_policy_mut()
            .set("Logon/Logoff", "Logon", AuditSetting::BOTH);
        assert_eq!(
            req.check(&host),
            CheckStatus::Pass,
            "auditing more than required passes"
        );
    }

    #[test]
    fn audit_enforce_unions_with_existing() {
        let success = AuditPolicyPattern::logon(AuditSetting::SUCCESS);
        let failure = AuditPolicyPattern::logon(AuditSetting::FAILURE);
        let mut host = WindowsHost::new("t");
        success.enforce(&mut host);
        failure.enforce(&mut host);
        assert_eq!(
            host.audit_policy().get("Logon/Logoff", "Logon"),
            AuditSetting::BOTH,
            "second enforcement must not clobber the first"
        );
        assert_eq!(success.check(&host), CheckStatus::Pass);
        assert_eq!(failure.check(&host), CheckStatus::Pass);
    }

    #[test]
    fn registry_pattern() {
        let req = RegistryDwordPattern::new(r"HKLM\K", "V", 1);
        let mut host = WindowsHost::new("t");
        assert_eq!(req.check(&host), CheckStatus::Fail);
        host.set_registry_value(r"HKLM\K", "V", RegistryValue::Dword(0));
        assert_eq!(req.check(&host), CheckStatus::Fail);
        req.enforce(&mut host);
        assert_eq!(req.check(&host), CheckStatus::Pass);
        host.set_registry_value(r"HKLM\K", "V", RegistryValue::Sz("1".into()));
        assert_eq!(
            req.check(&host),
            CheckStatus::Fail,
            "wrong value type fails"
        );
    }

    #[test]
    fn lockout_pattern() {
        let req = LockoutPolicyPattern::new(3, 15);
        let mut host = WindowsHost::new("t");
        assert_eq!(
            req.check(&host),
            CheckStatus::Fail,
            "threshold 0 means no lockout"
        );
        host.set_lockout_threshold(10);
        host.set_lockout_duration_minutes(30);
        assert_eq!(
            req.check(&host),
            CheckStatus::Fail,
            "10 attempts is too lax"
        );
        req.enforce(&mut host);
        assert_eq!(req.check(&host), CheckStatus::Pass);
        assert_eq!(host.lockout_duration_minutes(), 30, "longer duration kept");
    }

    #[test]
    fn catalog_contains_annex_findings() {
        let cat = catalog();
        for id in [
            "V-63447", "V-63449", "V-63463", "V-63467", "V-63483", "V-63487",
        ] {
            assert!(cat.find(id).is_some(), "{id} missing");
        }
        assert!(cat.len() >= 8);
        assert!(cat.iter().all(|e| e.is_enforceable()));
    }

    #[test]
    fn baseline_win10_becomes_compliant() {
        let cat = catalog();
        let mut host = WindowsHost::baseline_win10();
        let run = RemediationPlanner::new(PlannerConfig::default()).run(&cat, &mut host);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        assert_eq!(
            host.audit_policy()
                .get("Privilege Use", "Sensitive Privilege Use"),
            AuditSetting::BOTH
        );
        assert!(host.lockout_threshold() > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use vdo_host::{DriftInjector, Platform};

        proptest! {
            #[test]
            fn enforcement_converges_and_is_idempotent(seed in 0u64..500, events in 0usize..10) {
                let cat = catalog();
                let mut host = WindowsHost::baseline_win10();
                DriftInjector::new(seed).drift(&mut host, Platform::Windows, events);
                let planner = RemediationPlanner::new(PlannerConfig::default());
                let first = planner.run(&cat, &mut host);
                prop_assert_eq!(first.outcome, PlannerOutcome::Compliant);
                let snapshot = host.clone();
                let second = planner.run(&cat, &mut host);
                prop_assert_eq!(second.enforcements, 0);
                prop_assert_eq!(host, snapshot);
            }
        }
    }
}
