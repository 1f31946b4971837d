//! The remediation planner: check → enforce → re-check to a fixpoint.
//!
//! This is the engine behind "automated protection": given a catalogue and
//! a mutable environment, the planner sweeps all requirements, enforces the
//! failing enforceable ones, and repeats until compliant, stuck, or out of
//! iterations. Enforcing one requirement may *break* another (e.g. removing
//! a package that a second requirement expects), which is why a single
//! sweep is not enough and why the planner tracks convergence explicitly.
//!
//! Every entry point runs one sweep loop, which starts from verdicts
//! that equal a full check of the environment. A pass enforces every
//! failing entry against the verdicts it started with, then re-checks
//! only the entries that share a key with an entry it enforced
//! ([`Catalog::mark_sharing`]); every other verdict cannot have moved.
//! The `core.checks` counter still counts one full catalogue per
//! logical step (the starting check and each pass's re-check), so it
//! measures the sweep's shape, not its cost.
//!
//! [`RemediationPlanner::run`] starts the sweep from a full check and
//! turns it into a [`ComplianceReport`] (initial and final verdict,
//! attempts and last enforcement per requirement).
//! [`RemediationPlanner::remediate`] starts it from a full check and
//! returns only the final verdicts, in catalogue order; they equal
//! `catalog.check_all(env)` after the run, so a caller that acts on
//! verdicts neither builds the report nor checks the host a second
//! time. [`RemediationPlanner::remediate_from`] starts it from verdicts
//! the caller keeps (the SOC's per-host cache, a tenant's verdicts), so
//! remediation checks nothing its enforcements cannot have changed.

use crate::{
    Catalog, CheckStatus, ComplianceReport, EnforcementStatus, RequirementResult, RuleSet,
    WaiverSet,
};

/// Planner tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Maximum number of full check/enforce sweeps (default 4).
    pub max_iterations: u32,
    /// If `true`, requirements whose check is `Incomplete` are also
    /// enforced (default: only `Fail` triggers enforcement).
    pub enforce_incomplete: bool,
    /// If `true`, stop the whole run at the first `Failure` enforcement
    /// outcome (default `false`: keep remediating the rest).
    pub fail_fast: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_iterations: 4,
            enforce_incomplete: false,
            fail_fast: false,
        }
    }
}

/// How a planner run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerOutcome {
    /// Every requirement passes.
    Compliant,
    /// Some requirements still fail but no enforcement changed anything in
    /// the last sweep — further iterations would loop.
    Stuck,
    /// The iteration budget ran out while progress was still being made.
    IterationBudgetExhausted,
    /// `fail_fast` was set and an enforcement reported `Failure`.
    Aborted,
}

/// Drives a [`Catalog`] of requirements against a mutable environment.
///
/// ```
/// use vdo_core::{Catalog, CheckStatus, Checkable, EnforcementStatus, Enforceable,
///                PlannerConfig, PlannerOutcome, RemediationPlanner, RequirementSpec};
///
/// struct AtLeast(u32);
/// impl Checkable<u32> for AtLeast {
///     fn check(&self, env: &u32) -> CheckStatus { CheckStatus::from(*env >= self.0) }
/// }
/// impl Enforceable<u32> for AtLeast {
///     fn enforce(&self, env: &mut u32) -> EnforcementStatus {
///         *env = self.0; EnforcementStatus::Success
///     }
/// }
///
/// let mut cat = Catalog::new();
/// cat.register_enforceable("demo", RequirementSpec::builder("V-1").build(), AtLeast(10));
/// let planner = RemediationPlanner::new(PlannerConfig::default());
/// let mut env = 0u32;
/// let run = planner.run(&cat, &mut env);
/// assert_eq!(run.outcome, PlannerOutcome::Compliant);
/// assert_eq!(env, 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RemediationPlanner {
    config: PlannerConfig,
    telemetry: vdo_trace::Telemetry,
}

/// Everything a planner run produced.
#[derive(Debug, Clone)]
pub struct PlannerRun {
    /// Why the run stopped.
    pub outcome: PlannerOutcome,
    /// Number of full sweeps performed.
    pub iterations: u32,
    /// Total individual enforcement attempts.
    pub enforcements: u32,
    /// Per-requirement verdicts (initial vs final).
    pub report: ComplianceReport,
}

impl RemediationPlanner {
    /// Creates a planner with the given configuration.
    #[must_use]
    pub fn new(config: PlannerConfig) -> Self {
        RemediationPlanner {
            config,
            telemetry: vdo_trace::Telemetry::off(),
        }
    }

    /// Attaches telemetry: every run records the `core.checks` /
    /// `core.enforcements` counters and times itself under the
    /// `core/planner` span in `telemetry.registry`, and journals every
    /// enforcement attempt as a `core.enforce` event whose trace is a
    /// child of the finding's requirement root
    /// (`TraceContext::root(telemetry.trace_seed, finding_id)`), so
    /// remediations resolve to the requirement they serve. The default
    /// planner carries [`Telemetry::off`](vdo_trace::Telemetry::off):
    /// the unused cost is one branch per event.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: vdo_trace::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Assesses the catalogue and remediates until compliant, stuck, or
    /// out of budget. See [`PlannerRun`] for what is reported.
    pub fn run<E: ?Sized>(&self, catalog: &Catalog<E>, env: &mut E) -> PlannerRun {
        self.run_with_waivers(catalog, env, &WaiverSet::new(), 0)
    }

    /// Like [`run`](Self::run), but findings covered by an active waiver
    /// (at time `now`) are neither enforced nor counted against
    /// compliance; the report marks them as waived.
    pub fn run_with_waivers<E: ?Sized>(
        &self,
        catalog: &Catalog<E>,
        env: &mut E,
        waivers: &WaiverSet,
        now: u64,
    ) -> PlannerRun {
        let waived: Vec<bool> = catalog
            .iter()
            .map(|e| waivers.is_waived(e.spec().finding_id(), now))
            .collect();
        let _span = self.telemetry.registry.span("core/planner");
        let initial = catalog.verdicts(env);
        let mut current = initial.clone();
        let sweep = self.sweep(catalog, env, &mut current, &waived, now);
        let report: ComplianceReport = catalog
            .iter()
            .enumerate()
            .map(|(i, e)| RequirementResult {
                finding_id: e.spec().finding_id().to_string(),
                title: e.spec().title().to_string(),
                severity: e.spec().severity(),
                initial: initial[i],
                final_status: current[i],
                enforce_attempts: sweep.attempts[i],
                last_enforcement: sweep.last_enforcement[i],
                waived: waived[i],
            })
            .collect();

        PlannerRun {
            outcome: sweep.outcome,
            iterations: sweep.iterations,
            enforcements: sweep.enforcements,
            report,
        }
    }

    /// Remediates `env` exactly as [`run`](Self::run) does — same
    /// enforcements, counters and journal events — and returns the final
    /// verdict of every catalogue entry, in catalogue order, instead of
    /// a [`ComplianceReport`]. These are the verdicts
    /// `catalog.check_all(env)` would give afterwards, so a caller that
    /// only needs them pays neither for the report's owned strings nor
    /// for a second check.
    pub fn remediate<E: ?Sized>(&self, catalog: &Catalog<E>, env: &mut E) -> Vec<CheckStatus> {
        let _span = self.telemetry.registry.span("core/planner");
        let mut verdicts = catalog.verdicts(env);
        self.sweep(catalog, env, &mut verdicts, &[], 0);
        verdicts
    }

    /// [`remediate`](Self::remediate) from verdicts the caller already
    /// holds: `verdicts` must equal `catalog.check_all(env)`, and holds
    /// the final verdicts afterwards. The enforcements, counters and
    /// journal events are [`remediate`](Self::remediate)'s. Returns how
    /// many checks the sweep evaluated.
    pub fn remediate_from<E: ?Sized>(
        &self,
        catalog: &Catalog<E>,
        env: &mut E,
        verdicts: &mut [CheckStatus],
    ) -> usize {
        let _span = self.telemetry.registry.span("core/planner");
        self.sweep(catalog, env, verdicts, &[], 0).evaluated
    }

    /// The enforce → re-check loop behind every entry point (each times
    /// itself, its starting check included, under `core/planner`), from
    /// `current`, a full check of `env`, which it keeps current.
    /// `waived[i]` exempts entry `i` from enforcement and compliance
    /// (entries past the slice's end are not waived); `now` stamps the
    /// journal events.
    fn sweep<E: ?Sized>(
        &self,
        catalog: &Catalog<E>,
        env: &mut E,
        current: &mut [CheckStatus],
        waived: &[bool],
        now: u64,
    ) -> Sweep {
        let obs = &self.telemetry.registry;
        let journal = &self.telemetry.journal;
        let checks_counter = obs.counter("core.checks");
        let enforcements_counter = obs.counter("core.enforcements");
        let n = catalog.len();
        debug_assert_eq!(current.len(), n);
        // The starting verdicts are this sweep's first full check.
        checks_counter.add(n as u64);
        let is_waived = |i: usize| waived.get(i).copied().unwrap_or(false);
        let mut attempts = vec![0u32; n];
        let mut last_enforcement: Vec<Option<EnforcementStatus>> = vec![None; n];
        let mut enforcements = 0u32;
        let mut iterations = 0u32;
        let mut evaluated = 0;
        // The entries this pass's enforcements may have changed.
        let mut touched = RuleSet::new();
        let all_pass = |cur: &[CheckStatus]| {
            cur.iter()
                .enumerate()
                .all(|(i, s)| is_waived(i) || s.is_pass())
        };
        let mut outcome = if all_pass(current) {
            PlannerOutcome::Compliant
        } else {
            PlannerOutcome::IterationBudgetExhausted
        };

        'sweeps: while iterations < self.config.max_iterations && !all_pass(current) {
            iterations += 1;
            for (i, entry) in catalog.iter().enumerate() {
                let needs_fix = match current[i] {
                    CheckStatus::Fail => true,
                    CheckStatus::Incomplete => self.config.enforce_incomplete,
                    CheckStatus::Pass => false,
                };
                if !needs_fix || !entry.is_enforceable() || is_waived(i) {
                    continue;
                }
                let status = entry.enforce(env);
                catalog.mark_sharing(i, &mut touched);
                attempts[i] += 1;
                enforcements += 1;
                enforcements_counter.inc();
                last_enforcement[i] = Some(status);
                if journal.is_enabled() {
                    let rule = entry.spec().finding_id();
                    let ctx = vdo_trace::TraceContext::root(self.telemetry.trace_seed, rule)
                        .child_u64("enforce", u64::from(attempts[i]));
                    journal.emit(
                        vdo_trace::Event::info("core.enforce")
                            .at(now)
                            .trace(ctx)
                            .field("rule", rule)
                            .field("success", status == EnforcementStatus::Success),
                    );
                }
                if status == EnforcementStatus::Failure && self.config.fail_fast {
                    outcome = PlannerOutcome::Aborted;
                    // Refresh verdicts before reporting.
                    evaluated += touched.len();
                    catalog.recheck(env, current, &mut touched);
                    checks_counter.add(n as u64);
                    break 'sweeps;
                }
            }
            // Re-check what the enforcements may have changed: they
            // may interact.
            evaluated += touched.len();
            let any_progress = catalog.recheck(env, current, &mut touched) > 0;
            checks_counter.add(n as u64);
            if all_pass(current) {
                outcome = PlannerOutcome::Compliant;
                break;
            }
            if !any_progress {
                outcome = PlannerOutcome::Stuck;
                break;
            }
        }
        if iterations == 0 && all_pass(current) {
            outcome = PlannerOutcome::Compliant;
        }

        Sweep {
            outcome,
            iterations,
            enforcements,
            attempts,
            last_enforcement,
            evaluated,
        }
    }
}

/// What one [`RemediationPlanner::sweep`] left behind besides the
/// final verdicts; the vectors hold one value per entry in catalogue
/// order.
struct Sweep {
    outcome: PlannerOutcome,
    iterations: u32,
    enforcements: u32,
    attempts: Vec<u32>,
    last_enforcement: Vec<Option<EnforcementStatus>>,
    /// Checks the sweep evaluated (its starting verdicts excluded).
    evaluated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Checkable, Enforceable, RequirementSpec, Severity};

    fn spec(id: &str) -> RequirementSpec {
        RequirementSpec::builder(id)
            .title(id)
            .severity(Severity::Medium)
            .build()
    }

    /// Requires `env[idx] == want`; enforcing sets it.
    struct Slot {
        idx: usize,
        want: bool,
    }
    impl Checkable<Vec<bool>> for Slot {
        fn check(&self, env: &Vec<bool>) -> CheckStatus {
            CheckStatus::from(env[self.idx] == self.want)
        }
    }
    impl Enforceable<Vec<bool>> for Slot {
        fn enforce(&self, env: &mut Vec<bool>) -> EnforcementStatus {
            env[self.idx] = self.want;
            EnforcementStatus::Success
        }
    }

    #[test]
    fn compliant_environment_needs_no_sweeps() {
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        let mut env = vec![true];
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        assert_eq!(run.iterations, 0);
        assert_eq!(run.enforcements, 0);
    }

    #[test]
    fn single_sweep_remediation() {
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        cat.register_enforceable("p", spec("V-2"), Slot { idx: 1, want: true });
        let mut env = vec![false, false];
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        assert_eq!(run.iterations, 1);
        assert_eq!(run.enforcements, 2);
        assert_eq!(run.report.summary().remediated, 2);
        assert!(env.iter().all(|&b| b));
    }

    /// A pair of requirements whose enforcements interact: fixing A breaks
    /// B's precondition once, so two sweeps are needed.
    struct CopyFrom {
        src: usize,
        dst: usize,
    }
    impl Checkable<Vec<bool>> for CopyFrom {
        fn check(&self, env: &Vec<bool>) -> CheckStatus {
            CheckStatus::from(env[self.dst])
        }
    }
    impl Enforceable<Vec<bool>> for CopyFrom {
        fn enforce(&self, env: &mut Vec<bool>) -> EnforcementStatus {
            // Can only set dst if src is already set (dependency).
            if env[self.src] {
                env[self.dst] = true;
                EnforcementStatus::Success
            } else {
                EnforcementStatus::Incomplete
            }
        }
    }

    #[test]
    fn dependent_requirements_converge_over_multiple_sweeps() {
        let mut cat = Catalog::new();
        // V-2 depends on V-1's effect. Register dependent first so one
        // sweep is insufficient.
        cat.register_enforceable("p", spec("V-2"), CopyFrom { src: 0, dst: 1 });
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        let mut env = vec![false, false];
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        assert_eq!(run.iterations, 2);
        assert!(env[1]);
    }

    /// Never satisfiable, never changes the environment.
    struct Broken;
    impl Checkable<Vec<bool>> for Broken {
        fn check(&self, _: &Vec<bool>) -> CheckStatus {
            CheckStatus::Fail
        }
    }
    impl Enforceable<Vec<bool>> for Broken {
        fn enforce(&self, _: &mut Vec<bool>) -> EnforcementStatus {
            EnforcementStatus::Failure
        }
    }

    #[test]
    fn stuck_detection() {
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Broken);
        let mut env = vec![];
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Stuck);
        assert!(run.iterations < PlannerConfig::default().max_iterations);
        assert!(!run.report.is_fully_compliant());
    }

    #[test]
    fn fail_fast_aborts() {
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Broken);
        cat.register_enforceable("p", spec("V-2"), Slot { idx: 0, want: true });
        let planner = RemediationPlanner::new(PlannerConfig {
            fail_fast: true,
            ..PlannerConfig::default()
        });
        let mut env = vec![false];
        let run = planner.run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Aborted);
        assert!(!env[0], "fail_fast must stop before later enforcements");
    }

    #[test]
    fn waived_findings_do_not_block_or_get_enforced() {
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        cat.register_enforceable("p", spec("V-2"), Slot { idx: 1, want: true });
        let mut waivers = WaiverSet::new();
        waivers.waive("V-2", "hardware constraint until refresh");
        let mut env = vec![false, false];
        let run = RemediationPlanner::default().run_with_waivers(&cat, &mut env, &waivers, 0);
        assert_eq!(
            run.outcome,
            PlannerOutcome::Compliant,
            "waived V-2 must not block"
        );
        assert!(env[0], "V-1 enforced");
        assert!(!env[1], "V-2 skipped — the waiver means hands off");
        let summary = run.report.summary();
        assert_eq!(summary.waived, 1);
        assert_eq!(summary.failing, 0, "waived failure is not an open finding");
        assert!(run.report.open_findings().is_empty());
        assert!(run.report.is_fully_compliant());

        // An expired waiver stops protecting.
        let mut waivers = WaiverSet::new();
        waivers.add(crate::Waiver {
            finding_id: "V-2".into(),
            reason: "temporary".into(),
            expires_at: Some(10),
        });
        let mut env = vec![false, false];
        let run = RemediationPlanner::default().run_with_waivers(&cat, &mut env, &waivers, 11);
        assert!(env[1], "expired waiver: V-2 enforced again");
        assert_eq!(run.report.summary().waived, 0);
    }

    #[test]
    fn check_only_requirements_are_never_enforced() {
        let mut cat: Catalog<Vec<bool>> = Catalog::new();
        cat.register("p", spec("V-1"), |_: &Vec<bool>| CheckStatus::Fail);
        let mut env = vec![];
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.enforcements, 0);
        assert_eq!(run.outcome, PlannerOutcome::Stuck);
    }

    #[test]
    fn silent_ratchet_counts_as_stuck() {
        // Enforcement mutates the environment but the verdict never
        // changes within a sweep — the planner must not spin on it.
        struct Ratchet;
        impl Checkable<u32> for Ratchet {
            fn check(&self, env: &u32) -> CheckStatus {
                CheckStatus::from(*env >= 10)
            }
        }
        impl Enforceable<u32> for Ratchet {
            fn enforce(&self, env: &mut u32) -> EnforcementStatus {
                *env += 1;
                EnforcementStatus::Incomplete
            }
        }
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Ratchet);
        let mut env = 0u32;
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Stuck);
        assert_eq!(run.iterations, 1);
        assert_eq!(env, 1);
    }

    #[test]
    fn observed_planner_records_checks_and_enforcements() {
        let registry = vdo_obs::Registry::new();
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        let planner = RemediationPlanner::default().with_telemetry(vdo_trace::Telemetry {
            registry: registry.clone(),
            ..vdo_trace::Telemetry::off()
        });
        let mut env = vec![false];
        let run = planner.run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.enforcements"), Some(1));
        assert_eq!(snap.counter("core.checks"), Some(2), "initial + re-check");
        assert_eq!(snap.span_count("core/planner"), Some(1));
    }

    #[test]
    fn traced_planner_roots_enforcements_at_their_requirements() {
        use vdo_trace::{Journal, Telemetry, TraceContext};
        let journal = Journal::new();
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        cat.register_enforceable("p", spec("V-2"), Slot { idx: 1, want: true });
        let planner = RemediationPlanner::default().with_telemetry(Telemetry {
            journal: journal.clone(),
            trace_seed: 5,
            ..Telemetry::off()
        });
        let mut env = vec![false, true];
        let run = planner.run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        let snap = journal.snapshot();
        let enforces = snap.events_named("core.enforce");
        assert_eq!(enforces.len(), 1, "only the failing finding is enforced");
        let t = enforces[0].trace.expect("traced planner stamps events");
        assert_eq!(t.trace_id, TraceContext::root(5, "V-1").trace_id);
        // The default planner journals nothing.
        let mut env = vec![false, false];
        RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(snap.events.len(), journal.len(), "no stray events");
    }

    /// `remediate` on a clone leaves the same environment as `run` and
    /// returns `run`'s final verdicts, which a fresh check confirms.
    fn assert_remediate_matches_run<E: Clone + PartialEq + std::fmt::Debug>(
        planner: &RemediationPlanner,
        cat: &Catalog<E>,
        env: &E,
    ) {
        let mut by_run = env.clone();
        let run = planner.run(cat, &mut by_run);
        let mut by_remediate = env.clone();
        let verdicts = planner.remediate(cat, &mut by_remediate);
        assert_eq!(by_run, by_remediate);
        let final_status: Vec<CheckStatus> = run
            .report
            .results()
            .iter()
            .map(|r| r.final_status)
            .collect();
        assert_eq!(verdicts, final_status);
        let rechecked: Vec<CheckStatus> = cat
            .check_all(&by_remediate)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert_eq!(verdicts, rechecked);
    }

    #[test]
    fn remediate_returns_the_final_verdicts_of_run() {
        let default = RemediationPlanner::default();
        // Interacting requirements: two sweeps to converge.
        let mut interacting = Catalog::new();
        interacting.register_enforceable("p", spec("V-2"), CopyFrom { src: 0, dst: 1 });
        interacting.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        for env in [vec![false, false], vec![true, false], vec![true, true]] {
            assert_remediate_matches_run(&default, &interacting, &env);
        }
        // Stuck: an unrepairable entry next to a repairable one, and a
        // check-only entry.
        let mut stuck = Catalog::new();
        stuck.register_enforceable("p", spec("V-1"), Broken);
        stuck.register_enforceable("p", spec("V-2"), Slot { idx: 0, want: true });
        stuck.register("p", spec("V-3"), |env: &Vec<bool>| {
            CheckStatus::from(env[0])
        });
        assert_remediate_matches_run(&default, &stuck, &vec![false]);
        let fail_fast = RemediationPlanner::new(PlannerConfig {
            fail_fast: true,
            ..PlannerConfig::default()
        });
        assert_remediate_matches_run(&fail_fast, &stuck, &vec![false]);
        // Budget exhausted mid-chain.
        let mut chain = Catalog::new();
        chain.register_enforceable("p", spec("V-3"), CopyFrom { src: 1, dst: 2 });
        chain.register_enforceable("p", spec("V-2"), CopyFrom { src: 0, dst: 1 });
        chain.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        let one_sweep = RemediationPlanner::new(PlannerConfig {
            max_iterations: 1,
            ..PlannerConfig::default()
        });
        assert_remediate_matches_run(&one_sweep, &chain, &vec![false, false, false]);
        assert_remediate_matches_run(&default, &chain, &vec![false, false, false]);
    }

    /// [`Slot`] that declares the one key it reads and writes.
    struct KeyedSlot(usize);
    impl Checkable<Vec<bool>> for KeyedSlot {
        fn check(&self, env: &Vec<bool>) -> CheckStatus {
            CheckStatus::from(env[self.0])
        }
        fn read_set(&self) -> Option<Vec<u64>> {
            Some(vec![self.0 as u64])
        }
    }
    impl Enforceable<Vec<bool>> for KeyedSlot {
        fn enforce(&self, env: &mut Vec<bool>) -> EnforcementStatus {
            env[self.0] = true;
            EnforcementStatus::Success
        }
    }

    #[test]
    fn a_pass_re_checks_only_what_its_enforcements_share_a_key_with() {
        let registry = vdo_obs::Registry::new();
        let planner = RemediationPlanner::default().with_telemetry(vdo_trace::Telemetry {
            registry: registry.clone(),
            ..vdo_trace::Telemetry::off()
        });
        let mut cat = Catalog::new();
        for idx in 0..10 {
            cat.register_enforceable("p", spec(&format!("V-{idx}")), KeyedSlot(idx));
        }
        let mut env = vec![true; 10];
        env[3] = false;
        env[7] = false;
        let mut verdicts = cat.verdicts(&env);
        let evaluated = planner.remediate_from(&cat, &mut env, &mut verdicts);
        assert_eq!(evaluated, 2, "only the two enforced entries re-run");
        assert!(env.iter().all(|&b| b));
        assert_eq!(verdicts, cat.verdicts(&env));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("core.checks"),
            Some(20),
            "one logical full check to start and one per pass"
        );
    }

    #[test]
    fn iteration_budget_respected() {
        // A 3-link dependency chain makes real verdict progress each
        // sweep; with budget 1 the run must stop as exhausted.
        let mut cat = Catalog::new();
        cat.register_enforceable("p", spec("V-3"), CopyFrom { src: 1, dst: 2 });
        cat.register_enforceable("p", spec("V-2"), CopyFrom { src: 0, dst: 1 });
        cat.register_enforceable("p", spec("V-1"), Slot { idx: 0, want: true });
        let planner = RemediationPlanner::new(PlannerConfig {
            max_iterations: 1,
            ..PlannerConfig::default()
        });
        let mut env = vec![false, false, false];
        let run = planner.run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::IterationBudgetExhausted);
        assert_eq!(run.iterations, 1);
        assert!(env[0] && !env[2]);

        // With a generous budget the same chain converges.
        let mut env = vec![false, false, false];
        let run = RemediationPlanner::default().run(&cat, &mut env);
        assert_eq!(run.outcome, PlannerOutcome::Compliant);
        assert!(env.iter().all(|&b| b));
    }
}
