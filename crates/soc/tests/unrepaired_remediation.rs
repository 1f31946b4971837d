//! Regression test: a remediation attempt that runs without an injected
//! fault but leaves its own rule failing is a failed attempt. It must
//! retry with backoff and, once retries are exhausted, dead-letter
//! exactly like an injected fault — not strand the incident open with a
//! single attempt and suppress every later detection of the rule.
//!
//! The scenario adds a check-only rule (`Catalog::register`, so the
//! planner can never repair it) that `LoosenFileMode` drift breaks.

use vdo_core::{RemediationPlanner, RequirementSpec, Severity};
use vdo_host::{FileMode, UnixHost};
use vdo_soc::{DetectionKind, RemediationConfig, SocConfig, SocEngine};
use vdo_stigs::ubuntu::{self, FileModePattern};

const RULE: &str = "X-GSHADOW-0640";

#[test]
fn unrepairable_rules_retry_then_dead_letter() {
    let mut catalog = ubuntu::catalog();
    catalog.register(
        "local/files",
        RequirementSpec::builder(RULE)
            .title("The /etc/gshadow file must be mode 0640 or less permissive")
            .severity(Severity::Medium)
            .build(),
        FileModePattern::new("/etc/gshadow", FileMode::new(0o640)),
    );
    let planner = RemediationPlanner::default();
    let mut hardened = UnixHost::baseline_ubuntu_1804();
    planner.run(&catalog, &mut hardened);
    let mut fleet = vec![hardened; 50];
    let remediation = RemediationConfig {
        fault_rate: 0.0,
        ..RemediationConfig::default()
    };
    let cfg = SocConfig {
        duration: 200,
        drift_rate: 0.05,
        workers: 2,
        shards: 4,
        seed: 9,
        remediation,
        ..SocConfig::default()
    };
    let report = SocEngine::new(&catalog, cfg.clone())
        .expect("valid config")
        .run(&mut fleet);

    // A task detected at `d` makes its last attempt at `d + exhaust`.
    let exhaust = remediation.backoff_base * ((1u64 << remediation.max_retries) - 1);
    let stranded: Vec<_> = report
        .incidents
        .iter()
        .filter(|i| i.kind == DetectionKind::Stig && i.rule == RULE)
        .filter(|i| i.detected_at + exhaust < cfg.duration)
        .collect();
    assert!(
        stranded.len() >= 5,
        "drift must break the check-only rule early enough to exhaust retries"
    );
    for incident in &stranded {
        assert_eq!(incident.resolved_at, None, "nothing can repair the rule");
        assert_eq!(incident.attempts, remediation.max_retries + 1);
        let dead = report
            .dead_letters
            .iter()
            .find(|d| d.task.host == incident.host && d.task.rule == RULE)
            .unwrap_or_else(|| panic!("incident {incident:?} never dead-lettered"));
        assert_eq!(dead.task.attempt, remediation.max_retries + 1);
        assert_eq!(
            dead.abandoned_at,
            incident.detected_at + exhaust,
            "every retry waits out its backoff"
        );
    }
    assert!(
        report.dead_letters.iter().all(|d| d.task.rule == RULE),
        "fault-free remediation repairs every stock rule"
    );
    assert_eq!(report.dead_letters.len(), stranded.len());
    assert_eq!(report.metrics.dead_letters, stranded.len() as u64);
    let failed_attempts: u64 = report
        .incidents
        .iter()
        .filter(|i| i.rule == RULE)
        .map(|i| u64::from(i.attempts))
        .sum();
    assert_eq!(
        report.metrics.retries + report.metrics.dead_letters,
        failed_attempts,
        "every attempt on the unrepairable rule fails into a retry or a dead letter"
    );
}
