//! Per-tenant state: catalogue, gates, fleet, and the verdict log.
//!
//! Isolation is ownership of everything mutable: a [`Tenant`] owns its
//! requirement catalogue, its production [`UnixHost`] and that host's
//! per-rule verdicts, its gates, its drift RNG, and its incident ledger
//! outright, so one tenant's smelly requirements, rejected commits, or
//! drifting fleet cannot leak into another's verdicts. The only shared
//! state is immutable: every tenant reads the one Ubuntu STIG
//! [`Catalog`], and its key index, that the process builds once.
//!
//! A pushed commit is staged on production in place ([`Staged`]), and
//! the compliance gate re-checks only the rules whose read-sets meet
//! the commit's writes, taking every other verdict from the tenant's
//! cache. A rejected commit rolls production back to `==` its pre-push
//! state; a merged one keeps the staged state and its verdicts. An ops
//! call re-checks only the rules its drift's keys hit, and remediates
//! from the cache through the planner's key-targeted sweep.
//!
//! Every handled request appends one line to the tenant's **verdict
//! log**. Requests for one tenant are always processed in admission
//! order by exactly one worker per dispatch round (see the server's
//! scheduling invariant), and every outcome is a pure function of the
//! tenant's own seeded state, so equal-seed runs produce byte-identical
//! verdict logs at any worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vdo_core::{Catalog, CheckStatus, RemediationPlanner, RuleSet, Severity};
use vdo_host::{DriftInjector, Platform, UnixHost};
use vdo_nalabs::{Analyzer, RequirementDoc};
use vdo_pipeline::{
    AnalysisGate, ComplianceGate, Gate, GateContext, GateDecision, RequirementsGate, Staged,
    TestGate,
};
use vdo_trace::Journal;

use crate::request::{Envelope, Outcome, Request};

/// Everything needed to register one tenant with the server.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Tenant name (verdict-log and trace-root label).
    pub name: String,
    /// Fair-share weight for the DRR scheduler (clamped to >= 1).
    pub weight: u64,
    /// Bound of the tenant's admission queue (clamped to >= 1).
    pub queue_capacity: usize,
    /// Per-ops-tick probability of one drift event on the fleet.
    pub drift_rate: f64,
    /// Seed for the tenant's drift timing and content.
    pub seed: u64,
    /// Smelly requirement documents tolerated per commit by the
    /// requirements gate.
    pub requirement_tolerance: usize,
    /// Minimum severity at which the compliance gate blocks a commit.
    pub block_at: Severity,
    /// Edge-coverage fraction the test gate requires of shipped models.
    pub min_coverage: f64,
}

impl TenantConfig {
    /// Defaults: weight 1, queue capacity 256, 25% drift per ops tick,
    /// zero smell tolerance, block at CAT II, full coverage required.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            weight: 1,
            queue_capacity: 256,
            drift_rate: 0.25,
            seed: 0,
            requirement_tolerance: 0,
            block_at: Severity::Medium,
            min_coverage: 1.0,
        }
    }

    /// Sets the scheduler weight (builder style).
    #[must_use]
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the admission-queue bound (builder style).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-ops-tick drift probability (builder style).
    #[must_use]
    pub fn with_drift_rate(mut self, rate: f64) -> Self {
        self.drift_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the tenant seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One entry in a tenant's incident ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The violated catalogue rule (STIG finding id).
    pub rule: String,
    /// Dispatch round the violation was detected on.
    pub opened_at: u64,
    /// Dispatch round remediation closed it, when it has been.
    pub resolved_at: Option<u64>,
}

/// One tenant's slice of the VeriDevOps loop.
pub struct Tenant {
    name: String,
    stig: &'static Catalog<UnixHost>,
    production: UnixHost,
    /// `stig`'s verdicts on `production`, in catalogue order, refreshed
    /// wherever production is written.
    verdicts: Vec<CheckStatus>,
    requirements: Vec<RequirementDoc>,
    analyzer: Analyzer,
    req_gate: RequirementsGate,
    test_gate: TestGate,
    analysis_gate: AnalysisGate,
    block_at: Severity,
    drift_rate: f64,
    rng: StdRng,
    drifter: DriftInjector,
    planner: RemediationPlanner,
    incidents: Vec<Incident>,
    /// Catalogue index of each rule with an open incident → that
    /// incident's index in `incidents`.
    open: BTreeMap<usize, usize>,
    /// Finding id → (incidents recorded, incidents open) for that rule,
    /// kept beside `open` so a query is one lookup.
    tally: BTreeMap<&'static str, (usize, usize)>,
    verdict_log: String,
    /// Disabled journal lent to worker-side gate contexts: journal
    /// events are a main-thread concern (that is what keeps journal
    /// fingerprints worker-count-invariant), so gates evaluated on
    /// workers run silent while their verdict *spans* still chain off
    /// the request's trace context.
    silent: Journal,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("requirements", &self.requirements.len())
            .field("incidents", &self.incidents.len())
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// Provisions the tenant: the shared Ubuntu STIG catalogue, a
    /// baseline host hardened to full compliance, fresh gates, and a
    /// seeded drift source.
    #[must_use]
    pub fn new(config: &TenantConfig) -> Self {
        let stig = vdo_stigs::ubuntu::shared_catalog();
        let mut production = UnixHost::baseline_ubuntu_1804();
        let planner = RemediationPlanner::default();
        let verdicts = planner.remediate(stig, &mut production);
        Tenant {
            name: config.name.clone(),
            stig,
            production,
            verdicts,
            requirements: Vec::new(),
            analyzer: Analyzer::with_default_metrics(),
            req_gate: RequirementsGate::new().with_tolerance(config.requirement_tolerance),
            test_gate: TestGate::new(config.min_coverage),
            // Incremental: the tenant's monitor artifacts accumulate
            // across merged commits, each push re-lints only its delta.
            analysis_gate: AnalysisGate::incremental(Default::default()),
            block_at: config.block_at,
            drift_rate: config.drift_rate,
            rng: StdRng::seed_from_u64(config.seed ^ 0x7E4A_11C0_FFEE_D00D),
            drifter: DriftInjector::new(config.seed.wrapping_mul(31).wrapping_add(7)),
            planner,
            incidents: Vec::new(),
            open: BTreeMap::new(),
            tally: BTreeMap::new(),
            verdict_log: String::new(),
            silent: Journal::disabled(),
        }
    }

    /// The tenant's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Requirement documents accepted into the catalogue so far.
    #[must_use]
    pub fn requirements(&self) -> &[RequirementDoc] {
        &self.requirements
    }

    /// The incident ledger, in detection order.
    #[must_use]
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// The tenant's production host (drifts and deployments land here).
    #[must_use]
    pub fn production(&self) -> &UnixHost {
        &self.production
    }

    /// The append-only verdict log: one line per handled request, in
    /// processing order. Byte-identical across equal-seed runs at any
    /// worker count.
    #[must_use]
    pub fn verdict_log(&self) -> &str {
        &self.verdict_log
    }

    /// Handles one admitted request at dispatch round `now`, appending
    /// the verdict line and returning the outcome.
    pub fn handle(&mut self, env: &Envelope, now: u64) -> Outcome {
        let outcome = match &env.request {
            Request::SubmitRequirement(doc) => self.submit_requirement(doc),
            Request::PushCommit(commit) => self.push_commit(env, commit),
            Request::QueryIncident { rule } => self.query_incidents(rule.as_deref()),
            Request::RunOps { ticks } => self.run_ops(*ticks, now),
        };
        let _ = writeln!(
            self.verdict_log,
            "seq={} {} -> {outcome}",
            env.seq,
            env.request.kind()
        );
        if cfg!(debug_assertions) {
            assert_eq!(
                self.verdicts,
                self.checked_verdicts(),
                "tenant {}: verdict cache is stale after seq {}",
                self.name,
                env.seq
            );
        }
        outcome
    }

    /// A full check of production, in catalogue order: what the verdict
    /// cache must hold between requests.
    fn checked_verdicts(&self) -> Vec<CheckStatus> {
        self.stig.verdicts(&self.production)
    }

    fn submit_requirement(&mut self, doc: &RequirementDoc) -> Outcome {
        let report = self.analyzer.analyze(doc);
        if report.is_smelly() {
            Outcome::RequirementRejected(report.smell_count())
        } else {
            self.requirements.push(doc.clone());
            Outcome::RequirementAccepted
        }
    }

    fn push_commit(&mut self, env: &Envelope, commit: &vdo_pipeline::Commit) -> Outcome {
        match self.first_rejection(env, commit) {
            Some(decision) => Outcome::CommitRejected(decision.gate),
            None => Outcome::CommitMerged(commit.changes.len()),
        }
    }

    /// Stages `commit` on production in place and runs the four gates
    /// over it in order. Returns the first rejection, with production
    /// rolled back; on merge production and the verdict cache keep the
    /// staged state.
    fn first_rejection(
        &mut self,
        env: &Envelope,
        commit: &vdo_pipeline::Commit,
    ) -> Option<GateDecision> {
        let staged = Staged::apply(&mut self.production, &commit.changes);
        let verdicts = staged.recheck(self.stig, &self.verdicts);
        let compliance = ComplianceGate::new(self.stig, self.block_at);
        let delta = commit.artifact_delta();
        let cx = GateContext {
            commit,
            production: staged.host(),
            journal: &self.silent,
            trace: env.trace,
            at: env.submitted_at,
            changed: Some(&delta),
            staged_verdicts: Some(&verdicts),
        };
        let gates: [&dyn Gate; 4] = [
            &self.req_gate,
            &compliance,
            &self.test_gate,
            &self.analysis_gate,
        ];
        let rejection = gates.iter().map(|g| g.evaluate(&cx)).find(|d| !d.passed);
        if rejection.is_none() {
            staged.keep();
            self.verdicts = verdicts;
        }
        rejection
    }

    /// Counts the incidents recorded and open, for one rule or all, from
    /// the tallies `run_ops` keeps: O(log rules), whatever the history.
    fn query_incidents(&self, rule: Option<&str>) -> Outcome {
        let (total, open) = match rule {
            None => (self.incidents.len(), self.open.len()),
            Some(rule) => self.tally.get(rule).copied().unwrap_or_default(),
        };
        Outcome::Incidents { total, open }
    }

    /// Drifts production for up to 16 ticks, opens an incident for
    /// every failing rule without one, and remediates while any is
    /// open. Only the rules the drift's keys hit are re-checked, and
    /// open incidents are found by rule, so a call costs O(rules hit),
    /// not O(rules + incident history).
    fn run_ops(&mut self, ticks: u64, now: u64) -> Outcome {
        let ticks = ticks.clamp(1, 16);
        let mut drift = 0usize;
        let mut stale = RuleSet::new();
        for _ in 0..ticks {
            if self.rng.gen_bool(self.drift_rate) {
                for event in self.drifter.drift(&mut self.production, Platform::Unix, 1) {
                    self.stig.mark_readers(event.key.id(), &mut stale);
                    drift += 1;
                }
            }
        }
        let mut detected = 0usize;
        if drift > 0 {
            self.stig
                .recheck(&self.production, &mut self.verdicts, &mut stale);
            // A rule can also fail with no incident open after a merged
            // commit below the blocking severity; the cached verdicts
            // cover it without a check.
            for (rule, (entry, status)) in self.stig.iter().zip(&self.verdicts).enumerate() {
                if !status.is_pass() && !self.open.contains_key(&rule) {
                    let id = entry.spec().finding_id();
                    let tally = self.tally.entry(id).or_default();
                    tally.0 += 1;
                    tally.1 += 1;
                    self.open.insert(rule, self.incidents.len());
                    self.incidents.push(Incident {
                        rule: id.to_string(),
                        opened_at: now,
                        resolved_at: None,
                    });
                    detected += 1;
                }
            }
        }
        let mut remediated = 0usize;
        if !self.open.is_empty() {
            self.planner
                .remediate_from(self.stig, &mut self.production, &mut self.verdicts);
            let (verdicts, incidents, tally) =
                (&self.verdicts, &mut self.incidents, &mut self.tally);
            self.open.retain(|&rule, &mut incident| {
                let open = !verdicts[rule].is_pass();
                if !open {
                    let incident = &mut incidents[incident];
                    incident.resolved_at = Some(now);
                    let tally = tally
                        .get_mut(incident.rule.as_str())
                        .expect("every incident's rule has a tally");
                    tally.1 -= 1;
                    remediated += 1;
                }
                open
            });
        }
        Outcome::OpsComplete {
            drift,
            detected,
            remediated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use vdo_pipeline::{Commit, ConfigChange};

    fn env(seq: u64, request: Request) -> Envelope {
        Envelope {
            tenant: 0,
            seq,
            submitted_at: 0,
            request,
            trace: None,
        }
    }

    #[test]
    fn clean_requirements_enter_the_catalogue_and_smelly_ones_bounce() {
        let mut t = Tenant::new(&TenantConfig::new("acme"));
        let clean = RequirementDoc::new(
            "R-1",
            "The system shall record every failed logon attempt in the security log.",
        );
        let smelly = RequirementDoc::new(
            "R-2",
            "The system may possibly provide adequate and user friendly handling \
             as appropriate, TBD, see section 4.",
        );
        assert_eq!(
            t.handle(&env(0, Request::SubmitRequirement(clean)), 0),
            Outcome::RequirementAccepted
        );
        let Outcome::RequirementRejected(smells) =
            t.handle(&env(1, Request::SubmitRequirement(smelly)), 0)
        else {
            panic!("smelly doc must be rejected");
        };
        assert!(smells > 0);
        assert_eq!(t.requirements().len(), 1);
        assert_eq!(
            t.verdict_log().lines().count(),
            2,
            "one verdict line per request"
        );
    }

    #[test]
    fn gated_commits_merge_or_bounce_at_the_failing_gate() {
        let mut t = Tenant::new(&TenantConfig::new("acme"));
        let ok = Commit::new("ok")
            .with_change(ConfigChange::InstallPackage("htop".into(), "2.1".into()));
        assert_eq!(
            t.handle(&env(0, Request::PushCommit(ok)), 0),
            Outcome::CommitMerged(1)
        );
        assert!(t.production().is_package_installed("htop"));

        let bad = Commit::new("bad").with_change(ConfigChange::InstallPackage(
            "telnetd".into(),
            "0.17".into(),
        ));
        assert_eq!(
            t.handle(&env(1, Request::PushCommit(bad)), 1),
            Outcome::CommitRejected("compliance")
        );
        assert!(
            !t.production().is_package_installed("telnetd"),
            "rejected commits never deploy"
        );
    }

    #[test]
    fn compliance_severity_floor() {
        // V-219180 (PASS_MAX_DAYS 60) is CAT III: only a Low floor
        // blocks a commit that breaks it.
        let commit = Commit::new("lax-passwords").with_change(ConfigChange::SetDirective(
            "/etc/login.defs".into(),
            "PASS_MAX_DAYS".into(),
            "99999".into(),
        ));
        for (block_at, expected) in [
            (Severity::Low, Outcome::CommitRejected("compliance")),
            (Severity::Medium, Outcome::CommitMerged(1)),
            (Severity::High, Outcome::CommitMerged(1)),
        ] {
            let mut t = Tenant::new(&TenantConfig {
                block_at,
                ..TenantConfig::new("acme")
            });
            let before = t.production().clone();
            let outcome = t.handle(&env(0, Request::PushCommit(commit.clone())), 0);
            assert_eq!(outcome, expected, "block at {block_at}");
            let max_days = t.production().directive("/etc/login.defs", "PASS_MAX_DAYS");
            if outcome == Outcome::CommitMerged(1) {
                assert_eq!(max_days, Some("99999"));
            } else {
                assert_eq!(t.production(), &before);
            }
        }
    }

    #[test]
    fn commits_rejected_at_any_gate_leave_production_as_it_was() {
        use vdo_temporal::Formula;
        let config_changes = || {
            Commit::new("c")
                .with_change(ConfigChange::SetDirective(
                    "/etc/ssh/sshd_config".into(),
                    "PermitRootLogin".into(),
                    "no".into(),
                ))
                .with_change(ConfigChange::InstallPackage("htop".into(), "2.1".into()))
                .with_change(ConfigChange::SetFileMode("/var/log".into(), 0o750))
        };
        let mut unreachable = vdo_gwt::GraphModel::new("broken");
        let a = unreachable.add_vertex("a");
        let b = unreachable.add_vertex("b");
        let x = unreachable.add_vertex("island1");
        let y = unreachable.add_vertex("island2");
        unreachable.add_edge(a, b, "go");
        unreachable.add_edge(x, y, "island_hop");
        unreachable.set_start(a);
        let contradiction = Formula::and(
            Formula::globally(Formula::atom("locked")),
            Formula::finally(Formula::not(Formula::atom("locked"))),
        );
        let new_file = Commit::new("new-file")
            .with_change(ConfigChange::SetDirective(
                "/etc/app.conf".into(),
                "Mode".into(),
                "strict".into(),
            ))
            .with_change(ConfigChange::SetFileMode("/etc/app.conf".into(), 0o600))
            .with_change(ConfigChange::InstallPackage(
                "telnetd".into(),
                "0.17".into(),
            ));
        let cases = [
            (config_changes().with_model(unreachable), "tests"),
            (
                config_changes().with_formula("lock-monitor", contradiction),
                "analysis",
            ),
            (new_file, "compliance"),
        ];
        let mut t = Tenant::new(&TenantConfig::new("acme").with_seed(5));
        for (seq, (commit, gate)) in (0..).zip(cases) {
            let before = t.production().clone();
            assert_eq!(
                t.handle(&env(seq, Request::PushCommit(commit)), seq),
                Outcome::CommitRejected(gate)
            );
            assert_eq!(t.production(), &before, "rejected at {gate}");
            assert_eq!(t.verdicts, t.checked_verdicts());
        }
        assert!(!t.production().file_exists("/etc/app.conf"));
        // The same changes without the defects merge.
        assert_eq!(
            t.handle(&env(3, Request::PushCommit(config_changes())), 3),
            Outcome::CommitMerged(3)
        );
        assert!(t.production().is_package_installed("htop"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn change() -> impl Strategy<Value = ConfigChange> {
            prop_oneof![
                prop::sample::select(vec!["telnetd", "htop", "nis", "auditd"])
                    .prop_map(|p| ConfigChange::InstallPackage(p.into(), "1.0".into())),
                prop::sample::select(vec!["telnetd", "sudo", "vlock"])
                    .prop_map(|p| ConfigChange::RemovePackage(p.into())),
                (
                    prop::sample::select(vec!["/etc/ssh/sshd_config", "/etc/login.defs", "/etc/x"]),
                    prop::sample::select(vec![
                        "PermitRootLogin",
                        "encrypt_method",
                        "PASS_MAX_DAYS"
                    ]),
                    prop::sample::select(vec!["no", "yes", "SHA512", "60", "99999"]),
                )
                    .prop_map(|(p, k, v)| ConfigChange::SetDirective(
                        p.into(),
                        k.into(),
                        v.into()
                    )),
                (
                    prop::sample::select(vec!["/etc/shadow", "/etc/x"]),
                    prop::sample::select(vec![0o640u16, 0o644]),
                )
                    .prop_map(|(p, m)| ConfigChange::SetFileMode(p.into(), m)),
                (
                    prop::sample::select(vec!["rsyslog", "sshd"]),
                    prop::bool::ANY
                )
                    .prop_map(|(s, on)| ConfigChange::SetService(s.into(), on)),
            ]
        }

        proptest! {
            /// After any run of ops calls and pushes, every incident
            /// query (each catalogue rule, no rule, ids outside the
            /// catalogue) answers what a scan of the ledger gives.
            #[test]
            fn incident_queries_equal_a_scan_of_the_ledger(
                seed in 0u64..1_000_000,
                steps in prop::collection::vec(
                    (prop::bool::ANY, 1u64..8, prop::collection::vec(change(), 0..4)),
                    1..24,
                ),
                block_at in prop::sample::select(vec![Severity::Low, Severity::Medium, Severity::High]),
            ) {
                let config = TenantConfig { block_at, ..TenantConfig::new("acme").with_seed(seed) };
                let mut t = Tenant::new(&config);
                for (seq, (ops, ticks, changes)) in (0u64..).zip(steps) {
                    let request = if ops {
                        Request::RunOps { ticks }
                    } else {
                        Request::PushCommit(Commit { changes, ..Commit::new("c") })
                    };
                    t.handle(&env(seq, request), seq);
                }
                let scan = |rule: Option<&str>| {
                    let matching = t.incidents().iter().filter(|i| rule.is_none_or(|r| i.rule == r));
                    let (total, open) = matching.fold((0, 0), |(total, open), i| {
                        (total + 1, open + usize::from(i.resolved_at.is_none()))
                    });
                    Outcome::Incidents { total, open }
                };
                let rules = t
                    .stig
                    .iter()
                    .map(|e| Some(e.spec().finding_id()))
                    .chain([None, Some("V-000000"), Some(""), Some("V-2")]);
                for rule in rules {
                    prop_assert_eq!(t.query_incidents(rule), scan(rule), "rule {:?}", rule);
                }
            }

            /// On a drifted production host, the tenant's compliance
            /// decision (staged in place, verdicts from the cache) is
            /// the reference gate's decision on a clone; a rejection
            /// leaves production as it was and a merge equals
            /// clone-then-apply.
            #[test]
            fn tenant_compliance_decision_equals_the_clone_path(
                seed in 0u64..1_000_000,
                events in 0usize..10,
                changes in prop::collection::vec(change(), 0..6),
                block_at in prop::sample::select(vec![Severity::Low, Severity::Medium, Severity::High]),
            ) {
                let mut t = Tenant::new(&TenantConfig { block_at, ..TenantConfig::new("acme") });
                DriftInjector::new(seed).drift(&mut t.production, Platform::Unix, events);
                t.verdicts = t.checked_verdicts();
                let before = t.production.clone();
                let commit = Commit { changes, ..Commit::new("c") };
                let reference = ComplianceGate::new(t.stig, block_at).evaluate(&commit, &before);
                let rejection = t.first_rejection(&env(0, Request::PushCommit(commit.clone())), &commit);
                prop_assert_eq!(rejection, (!reference.passed).then_some(reference));
                let mut merged = before.clone();
                for change in &commit.changes {
                    change.apply(&mut merged);
                }
                let expected = if rejection.is_none() { &merged } else { &before };
                prop_assert_eq!(&t.production, expected);
                prop_assert_eq!(t.verdicts.clone(), t.checked_verdicts());
            }
        }
    }

    #[test]
    fn defective_monitor_artifacts_bounce_and_state_rolls_back() {
        use vdo_temporal::Formula;
        let mut t = Tenant::new(&TenantConfig::new("acme"));
        let bad = Commit::new("bad").with_formula(
            "lock-monitor",
            Formula::and(
                Formula::globally(Formula::atom("locked")),
                Formula::finally(Formula::not(Formula::atom("locked"))),
            ),
        );
        assert_eq!(
            t.handle(&env(0, Request::PushCommit(bad)), 0),
            Outcome::CommitRejected("analysis")
        );
        // The rejected monitor was rolled back from the accumulated
        // state: a clean redefinition under the same name merges.
        let fixed = Commit::new("fixed").with_formula(
            "lock-monitor",
            Formula::globally(Formula::implies(
                Formula::atom("idle_15m"),
                Formula::finally(Formula::atom("locked")),
            )),
        );
        assert_eq!(
            t.handle(&env(1, Request::PushCommit(fixed)), 1),
            Outcome::CommitMerged(0)
        );
        // And a later commit contradicting the *accumulated* state by
        // redefining the merged monitor as a tautology is rejected.
        let regress = Commit::new("regress").with_formula(
            "lock-monitor",
            Formula::or(Formula::atom("p"), Formula::not(Formula::atom("p"))),
        );
        assert_eq!(
            t.handle(&env(2, Request::PushCommit(regress)), 2),
            Outcome::CommitRejected("analysis")
        );
    }

    #[test]
    fn ops_detects_and_remediates_drift_deterministically() {
        let run = |seed: u64| {
            let mut t = Tenant::new(&TenantConfig::new("acme").with_seed(seed));
            for seq in 0..40 {
                t.handle(&env(seq, Request::RunOps { ticks: 4 }), seq);
            }
            (
                t.incidents().len(),
                t.verdict_log().to_string(),
                t.production().clone(),
            )
        };
        let (incidents, log, host) = run(9);
        assert!(incidents > 0, "25% drift over 160 ticks must break rules");
        let (i2, log2, host2) = run(9);
        assert_eq!(incidents, i2);
        assert_eq!(log, log2, "equal seeds replay byte-identical verdicts");
        assert_eq!(host, host2);
        let (_, log3, _) = run(10);
        assert_ne!(log, log3, "different seeds drift differently");
    }

    #[test]
    fn incident_queries_filter_by_rule() {
        let mut t = Tenant::new(&TenantConfig::new("acme").with_seed(3));
        for seq in 0..60 {
            t.handle(&env(seq, Request::RunOps { ticks: 4 }), seq);
        }
        let Outcome::Incidents { total, open } =
            t.handle(&env(100, Request::QueryIncident { rule: None }), 100)
        else {
            panic!("query answers with incident counts");
        };
        assert!(total > 0);
        assert!(open <= total);
        let some_rule = t.incidents()[0].rule.clone();
        let Outcome::Incidents {
            total: filtered, ..
        } = t.handle(
            &env(
                101,
                Request::QueryIncident {
                    rule: Some(some_rule),
                },
            ),
            101,
        )
        else {
            panic!()
        };
        assert!(filtered >= 1);
        assert!(filtered <= total);
        let Outcome::Incidents { total: none, .. } = t.handle(
            &env(
                102,
                Request::QueryIncident {
                    rule: Some("V-000000".into()),
                },
            ),
            102,
        ) else {
            panic!()
        };
        assert_eq!(none, 0);
    }

    #[test]
    fn kinds_cover_the_request_surface() {
        // Guard against a new Request variant silently skipping the
        // verdict log: every kind handled above appears by name.
        let mut t = Tenant::new(&TenantConfig::new("acme").with_seed(1));
        t.handle(
            &env(
                0,
                Request::SubmitRequirement(RequirementDoc::new(
                    "R-1",
                    "The system shall lock the session after 15 minutes of inactivity.",
                )),
            ),
            0,
        );
        t.handle(&env(1, Request::PushCommit(Commit::new("c"))), 1);
        t.handle(&env(2, Request::QueryIncident { rule: None }), 2);
        t.handle(&env(3, Request::RunOps { ticks: 1 }), 3);
        for kind in RequestKind::ALL {
            assert!(t.verdict_log().contains(kind.as_str()), "{kind} logged");
        }
    }
}
