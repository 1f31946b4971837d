//! The SOC's per-host verdict cache under overload.
//!
//! With a queue too small for a tick's events, drift is written on one
//! tick and its event processed on a later one, and other triggers for
//! the same host run in between. Drift marks its rules stale when it
//! writes, so those triggers must still see it. Debug builds assert
//! after every trigger and remediation that the cache equals a full
//! check; in any build, the run must match one over the same rules
//! declared without read-sets, which the engine re-checks in full on
//! every write.

use vdo_core::{
    Catalog, CheckStatus, Checkable, Enforceable, EnforcementStatus, RemediationPlanner,
};
use vdo_host::UnixHost;
use vdo_soc::{RemediationConfig, SocConfig, SocEngine, SocReport};
use vdo_stigs::sweep::CheckOp;
use vdo_stigs::ubuntu;

/// A rule that keeps its check and enforcement but declares no
/// read-set, so the catalogue counts it as reading every key.
struct Unscoped(CheckOp);

impl Checkable<UnixHost> for Unscoped {
    fn check(&self, host: &UnixHost) -> CheckStatus {
        self.0.check(host)
    }
}

impl Enforceable<UnixHost> for Unscoped {
    fn enforce(&self, host: &mut UnixHost) -> EnforcementStatus {
        self.0.enforce(host)
    }
}

/// The Ubuntu catalogue with every read-set dropped.
fn unscoped_catalog() -> Catalog<UnixHost> {
    let scoped = ubuntu::catalog();
    let mut catalog = Catalog::new();
    for (entry, rule) in scoped.iter().zip(ubuntu::rules()) {
        catalog.register_enforceable(
            entry.package().clone(),
            entry.spec().clone(),
            Unscoped(rule.op().clone()),
        );
    }
    catalog
}

fn overloaded_run(catalog: &Catalog<UnixHost>, workers: usize) -> SocReport {
    let planner = RemediationPlanner::default();
    let mut fleet: Vec<UnixHost> = (0..60)
        .map(|_| {
            let mut host = UnixHost::baseline_ubuntu_1804();
            planner.run(catalog, &mut host);
            host
        })
        .collect();
    SocEngine::new(
        catalog,
        SocConfig {
            duration: 80,
            drift_rate: 0.15,
            workers,
            shards: 2,
            queue_capacity: 6,
            seed: 17,
            remediation: RemediationConfig {
                fault_rate: 0.3,
                ..RemediationConfig::default()
            },
            ..SocConfig::default()
        },
    )
    .expect("valid config")
    .run(&mut fleet)
}

#[test]
fn deferred_drift_keeps_the_cache_exact() {
    let scoped = ubuntu::catalog();
    let unscoped = unscoped_catalog();
    assert!(unscoped.iter().all(|entry| entry.read_set().is_none()));
    for workers in [1, 2] {
        let cached = overloaded_run(&scoped, workers);
        let full = overloaded_run(&unscoped, workers);
        let (c, f) = (&cached.metrics, &full.metrics);
        assert!(c.events_deferred > 100, "the queue must overflow");
        assert_eq!(cached.incident_log(), full.incident_log());
        assert_eq!(cached.dead_letters, full.dead_letters);
        assert_eq!(
            (c.checks_run, c.events_processed, c.events_deferred),
            (f.checks_run, f.events_processed, f.events_deferred)
        );
        assert_eq!(
            (c.remediations, c.retries, c.dead_letters),
            (f.remediations, f.retries, f.dead_letters)
        );
        assert!(
            c.rules_evaluated * 3 < f.rules_evaluated,
            "read-sets must save most evaluations: {} vs {}",
            c.rules_evaluated,
            f.rules_evaluated
        );
        assert!(f.rules_evaluated <= f.checks_run);
    }
}
