//! The end-to-end VeriDevOps scenario (experiment E10 and the
//! quickstart example).
//!
//! Development phase: a stream of seeded commits — some with smelly
//! requirements, some with compliance-breaking configuration changes —
//! flows through the gates (when enabled) and deploys. Operations phase:
//! the deployed host runs under drift with (or without) continuous
//! monitoring. The report compares vulnerability exposure between the
//! automated VeriDevOps configuration and the manual baseline.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use serde::Serialize;
use vdo_core::{RemediationPlanner, Severity};
use vdo_host::UnixHost;
use vdo_nalabs::RequirementDoc;
use vdo_soc::{DetectionMode, SocConfig};
use vdo_tears::{parse_guard, GuardedAssertion};
use vdo_temporal::Formula;
use vdo_trace::{Event, Telemetry, TraceContext};

use crate::gates::{AnalysisGate, ComplianceGate, Gate, GateContext, RequirementsGate, TestGate};
use crate::ops::{OperationsPhase, OpsReport};
use crate::repo::{Commit, ConfigChange};

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Number of commits in the development phase.
    pub commits: usize,
    /// Probability a commit carries a smelly requirement.
    pub smelly_commit_rate: f64,
    /// Probability a commit carries a compliance-breaking change.
    pub vulnerable_commit_rate: f64,
    /// Probability a commit ships a behavioural-model update with
    /// unreachable (untestable) transitions.
    pub broken_model_rate: f64,
    /// Probability a commit ships a defective monitor artifact (a
    /// contradictory formula, a vacuous pattern, or a dead TEARS guard).
    pub bad_artifact_rate: f64,
    /// Whether the NALABS requirements gate runs.
    pub requirements_gate: bool,
    /// Whether the RQCODE compliance gate runs.
    pub compliance_gate: bool,
    /// Whether the GWT test-coverage gate runs.
    pub test_gate: bool,
    /// Whether the vdo-analyze static-analysis gate runs.
    pub analysis_gate: bool,
    /// Whether the analysis gate runs incrementally: accumulated
    /// artifact state with fingerprint memoisation, each commit
    /// re-linting only its own delta (`false` = batch per-commit
    /// analysis; verdicts are identical either way).
    pub incremental_analysis: bool,
    /// How operations detect drift. The default is the paper's
    /// automated configuration: a periodic monitor every 10 ticks plus a
    /// scheduled audit every 500; a periodic mode with no monitor is
    /// the manual baseline.
    pub detection: DetectionMode,
    /// Operations duration in ticks.
    pub ops_duration: u64,
    /// Per-tick drift probability at operations.
    pub drift_rate: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            commits: 50,
            smelly_commit_rate: 0.3,
            vulnerable_commit_rate: 0.3,
            broken_model_rate: 0.1,
            bad_artifact_rate: 0.1,
            requirements_gate: true,
            compliance_gate: true,
            test_gate: true,
            analysis_gate: true,
            incremental_analysis: true,
            detection: DetectionMode::Periodic {
                monitor: Some(10),
                audit: 500,
            },
            ops_duration: 2_000,
            drift_rate: 0.02,
            seed: 0,
        }
    }
}

/// End-to-end results.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Commits processed.
    pub commits: usize,
    /// Commits rejected by the requirements gate.
    pub rejected_requirements: usize,
    /// Commits rejected by the compliance gate.
    pub rejected_compliance: usize,
    /// Commits rejected by the test gate.
    pub rejected_tests: usize,
    /// Commits rejected by the static-analysis gate.
    pub rejected_analysis: usize,
    /// Diagnostic listings from every analysis-gate rejection, in
    /// commit order (each entry is one rendered diagnostic).
    pub analysis_findings: Vec<String>,
    /// Smelly requirement documents that reached the accepted baseline
    /// (escaped or no gate).
    pub smelly_requirements_merged: usize,
    /// Compliance-breaking changes that reached production.
    pub vulnerabilities_deployed: usize,
    /// Operations-phase report.
    pub ops: OpsReport,
}

impl PipelineReport {
    /// Total commits rejected across all gates.
    #[must_use]
    pub fn rejected_total(&self) -> usize {
        self.rejected_requirements
            + self.rejected_compliance
            + self.rejected_tests
            + self.rejected_analysis
    }

    /// Renders the run as a compact text summary — the "pipeline run"
    /// box a CI dashboard would show.
    #[must_use]
    pub fn to_summary(&self) -> String {
        format!(
            "pipeline run: {} commits ({} merged, {} rejected: {} requirements / {} compliance / \
             {} tests / {} analysis)\n\
             development:  {} smelly requirements merged, {} vulnerabilities deployed\n\
             operations:   {} ticks, {} drift events, {} incidents \
             (mean detection latency {:.1} ticks), exposure {:.2}%\n",
            self.commits,
            self.commits - self.rejected_total(),
            self.rejected_total(),
            self.rejected_requirements,
            self.rejected_compliance,
            self.rejected_tests,
            self.rejected_analysis,
            self.smelly_requirements_merged,
            self.vulnerabilities_deployed,
            self.ops.duration,
            self.ops.drift_events,
            self.ops.incidents.len(),
            self.ops.mean_detection_latency(),
            100.0 * self.ops.exposure(),
        )
    }
}

impl std::fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_summary())
    }
}

impl Serialize for PipelineReport {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("commits", self.commits.to_value()),
            (
                "rejected_requirements",
                self.rejected_requirements.to_value(),
            ),
            ("rejected_compliance", self.rejected_compliance.to_value()),
            ("rejected_tests", self.rejected_tests.to_value()),
            ("rejected_analysis", self.rejected_analysis.to_value()),
            ("analysis_findings", self.analysis_findings.to_value()),
            ("rejected_total", self.rejected_total().to_value()),
            (
                "smelly_requirements_merged",
                self.smelly_requirements_merged.to_value(),
            ),
            (
                "vulnerabilities_deployed",
                self.vulnerabilities_deployed.to_value(),
            ),
            ("ops", self.ops.to_value()),
        ])
    }
}

/// Runs the full scenario.
///
/// With an enabled `telemetry.registry`, the development phase is timed
/// under `pipeline/dev` (initial hardening, gates, merges), the
/// operations phase under `pipeline/ops`, the whole run under
/// `pipeline`, and the `pipeline.*` counters record gate decisions. The
/// planner and operations instrumentation (`core.*`, `ops.*`)
/// accumulate in the same registry, so one [`vdo_obs::Snapshot`] covers
/// the closed loop end to end.
///
/// With an enabled `telemetry.journal`, every commit gets a root
/// [`TraceContext`] derived from `(config.seed, commit id)` at
/// ingestion, each requirement document gets its own root, gate
/// verdicts become child spans (`gate.verdict` events), merges emit
/// `pipeline.deploy`, and the planner and the operations phase mint
/// their roots from `config.seed` too, so every incident's trace id
/// resolves back to the catalogue requirement it violated
/// (`telemetry.trace_seed` is not used). Equal seeds yield
/// byte-identical journal fingerprints. A journal built with a durable
/// sink streams the whole closed loop to disk; call
/// [`Journal::sync`](vdo_trace::Journal::sync) before reopening it.
/// [`Telemetry::off`] records nothing and changes no verdict.
///
/// # Panics
/// On a config [`PipelineConfig::builder`] would reject: a periodic
/// monitor period of zero, or a drift rate outside `[0, 1]`.
#[must_use]
pub fn run(config: &PipelineConfig, telemetry: &Telemetry) -> PipelineReport {
    let obs = &telemetry.registry;
    let journal = &telemetry.journal;
    // The scenario mints every root from `config.seed`; the planner and
    // the operations phase join that namespace.
    let lent = Telemetry {
        trace_seed: config.seed,
        ..telemetry.clone()
    };
    let run_span = obs.span("pipeline");
    let catalog = vdo_stigs::ubuntu::catalog();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tracing_on = journal.is_enabled();

    let dev_span = run_span.child("dev");
    // Deploy target starts compliant (initial hardening).
    let mut production = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default()
        .with_telemetry(lent.clone())
        .run(&catalog, &mut production);

    let req_gate = RequirementsGate::new();
    let compliance_gate = ComplianceGate::new(&catalog, Severity::Medium);
    let test_gate = TestGate::new(1.0);
    let analysis_gate = if config.incremental_analysis {
        AnalysisGate::incremental(Default::default()).observed(obs.clone())
    } else {
        AnalysisGate::default()
    };
    // Gate order matters for attribution: the analysis gate runs last
    // so every defect class is charged to the gate that owns it.
    let gates: [(&dyn Gate, bool); 4] = [
        (&req_gate, config.requirements_gate),
        (&compliance_gate, config.compliance_gate),
        (&test_gate, config.test_gate),
        (&analysis_gate, config.analysis_gate),
    ];

    let commits_counter = obs.counter("pipeline.commits");
    let merged_counter = obs.counter("pipeline.merged");

    let mut rejected: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut analysis_findings: Vec<String> = Vec::new();
    let mut smelly_requirements_merged = 0;
    let mut vulnerabilities_deployed = 0;

    'commits: for i in 0..config.commits {
        let commit = synth_commit(i, config, &mut rng);
        commits_counter.inc();
        let smelly = commit
            .requirements
            .iter()
            .any(|d| d.id().ends_with("-smelly"));
        let vulnerable = !commit.changes.is_empty();

        let commit_trace = if tracing_on {
            // Requirement ingestion: the commit and each requirement
            // document it ships get deterministic root contexts.
            let ctx = TraceContext::root(config.seed, &commit.id);
            journal.emit(
                Event::info("commit.ingested")
                    .at(i as u64)
                    .trace(ctx)
                    .field("commit", commit.id.as_str()),
            );
            for doc in &commit.requirements {
                journal.emit(
                    Event::info("requirement.ingested")
                        .at(i as u64)
                        .trace(TraceContext::root(config.seed, doc.id()))
                        .field("rule", doc.id()),
                );
            }
            Some(ctx)
        } else {
            None
        };
        let delta = commit.artifact_delta();
        let cx = GateContext {
            commit: &commit,
            production: &production,
            journal,
            trace: commit_trace,
            at: i as u64,
            changed: Some(&delta),
            staged_verdicts: None,
        };
        for (gate, enabled) in gates {
            if !enabled {
                continue;
            }
            let decision = gate.evaluate(&cx);
            if !decision.passed {
                *rejected.entry(gate.name()).or_default() += 1;
                obs.counter(&format!("pipeline.rejected.{}", gate.name()))
                    .inc();
                if gate.name() == "analysis" {
                    analysis_findings.extend(decision.reasons);
                }
                continue 'commits;
            }
        }
        // Merge + deploy.
        merged_counter.inc();
        if smelly {
            smelly_requirements_merged += 1;
            obs.counter("pipeline.smelly_merged").inc();
        }
        if vulnerable {
            vulnerabilities_deployed += 1;
            obs.counter("pipeline.vulns_deployed").inc();
        }
        for change in &commit.changes {
            change.apply(&mut production);
        }
        if let Some(t) = commit_trace {
            journal.emit(
                Event::info("pipeline.deploy")
                    .at(i as u64)
                    .trace(t.child("deploy"))
                    .field("commit", commit.id.as_str())
                    .field("changes", commit.changes.len()),
            );
        }
    }
    drop(dev_span);

    // The operations phase inherits `config.seed` as its trace
    // namespace (its drift draws still key on the offset seed below), so
    // incident roots coincide with the requirement roots minted above.
    let ops = OperationsPhase::new(&catalog)
        .run(
            &mut production,
            &SocConfig {
                duration: config.ops_duration,
                drift_rate: config.drift_rate,
                workers: 1,
                seed: config.seed.wrapping_add(1),
                detection: config.detection,
                ..SocConfig::default()
            },
            &lent,
        )
        .expect("a config PipelineConfig::builder accepts makes a valid SocConfig");

    PipelineReport {
        commits: config.commits,
        rejected_requirements: rejected.get("requirements").copied().unwrap_or(0),
        rejected_compliance: rejected.get("compliance").copied().unwrap_or(0),
        rejected_tests: rejected.get("tests").copied().unwrap_or(0),
        rejected_analysis: rejected.get("analysis").copied().unwrap_or(0),
        analysis_findings,
        smelly_requirements_merged,
        vulnerabilities_deployed,
        ops,
    }
}

/// A behavioural-model update; `broken` plants an unreachable edge that
/// the test gate must catch.
fn synth_model(index: usize, broken: bool) -> vdo_gwt::GraphModel {
    let mut m = vdo_gwt::GraphModel::new(format!("feature_{index}"));
    let idle = m.add_vertex("idle");
    let active = m.add_vertex("active");
    m.add_edge(idle, active, "activate");
    m.add_edge(active, idle, "deactivate");
    if broken {
        let orphan_a = m.add_vertex("orphan_a");
        let orphan_b = m.add_vertex("orphan_b");
        m.add_edge(orphan_a, orphan_b, "unreachable_transition");
    }
    m.set_start(idle);
    m
}

/// Synthesises one commit: clean by default; with the configured rates it
/// carries a smelly requirement and/or a compliance-breaking change.
fn synth_commit(index: usize, config: &PipelineConfig, rng: &mut StdRng) -> Commit {
    let mut commit = Commit::new(format!("commit-{index:04}"));
    if rng.gen_bool(config.smelly_commit_rate) {
        commit = commit.with_requirement(RequirementDoc::new(
            format!("REQ-{index:04}-smelly"),
            "The system may possibly provide adequate and user friendly handling as \
             appropriate, TBD, see section 4.",
        ));
    } else {
        commit = commit.with_requirement(RequirementDoc::new(
            format!("REQ-{index:04}"),
            "The system shall record every failed logon attempt in the security log.",
        ));
    }
    if rng.gen_bool(config.broken_model_rate) {
        commit = commit.with_model(synth_model(index, true));
    } else if index.is_multiple_of(4) {
        commit = commit.with_model(synth_model(index, false));
    }
    if rng.gen_bool(config.vulnerable_commit_rate) {
        let breakages = [
            ConfigChange::InstallPackage("telnetd".into(), "0.17".into()),
            ConfigChange::InstallPackage("nis".into(), "3.17".into()),
            ConfigChange::SetDirective(
                "/etc/ssh/sshd_config".into(),
                "PermitEmptyPasswords".into(),
                "yes".into(),
            ),
            ConfigChange::SetFileMode("/etc/shadow".into(), 0o666),
            ConfigChange::RemovePackage("aide".into()),
        ];
        commit = commit.with_change(breakages[rng.gen_range(0..breakages.len())].clone());
    }
    // Monitor artifacts: with the configured rate the commit ships a
    // defective one (cycling through the planted defect classes the
    // analysis gate must catch); otherwise every fifth commit ships a
    // clean response monitor.
    if rng.gen_bool(config.bad_artifact_rate) {
        commit = match index % 3 {
            0 => commit.with_formula(
                format!("monitor_{index}"),
                Formula::and(
                    Formula::globally(Formula::atom("locked")),
                    Formula::finally(Formula::not(Formula::atom("locked"))),
                ),
            ),
            1 => commit.with_formula(
                format!("monitor_{index}"),
                Formula::globally(Formula::implies(
                    Formula::and(Formula::atom("armed"), Formula::not(Formula::atom("armed"))),
                    Formula::finally(Formula::atom("alert")),
                )),
            ),
            _ => commit.with_assertion(GuardedAssertion::new(
                format!("assert_{index}"),
                parse_guard("load > 1 and load < 0").expect("guard parses"),
                parse_guard("throttled == 1").expect("assertion parses"),
                5,
            )),
        };
    } else if index.is_multiple_of(5) {
        commit = commit.with_formula(
            format!("monitor_{index}"),
            Formula::globally(Formula::implies(
                Formula::atom("request"),
                Formula::finally(Formula::atom("response")),
            )),
        );
    }
    commit
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_trace::Journal;

    fn with_registry(registry: &vdo_obs::Registry) -> Telemetry {
        Telemetry {
            registry: registry.clone(),
            ..Telemetry::off()
        }
    }

    fn with_journal(journal: &Journal) -> Telemetry {
        Telemetry {
            journal: journal.clone(),
            ..Telemetry::off()
        }
    }

    #[test]
    fn gated_pipeline_blocks_everything_risky() {
        let report = run(
            &PipelineConfig {
                commits: 60,
                seed: 5,
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        assert_eq!(report.smelly_requirements_merged, 0);
        assert_eq!(report.vulnerabilities_deployed, 0);
        assert!(report.rejected_requirements > 0);
        assert!(report.rejected_compliance > 0);
        assert!(report.rejected_tests > 0, "broken models must be caught");
        assert!(
            report.rejected_analysis > 0,
            "defective monitor artifacts must be caught"
        );
        assert!(
            !report.analysis_findings.is_empty(),
            "analysis rejections carry their diagnostics"
        );
    }

    #[test]
    fn ungated_pipeline_ships_problems() {
        let report = run(
            &PipelineConfig {
                commits: 60,
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                analysis_gate: false,
                seed: 5,
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        assert!(report.smelly_requirements_merged > 0);
        assert!(report.vulnerabilities_deployed > 0);
        assert_eq!(report.rejected_requirements, 0);
        assert_eq!(report.rejected_compliance, 0);
    }

    #[test]
    fn requirements_gate_alone_still_lets_vulnerabilities_pass() {
        let report = run(
            &PipelineConfig {
                commits: 60,
                requirements_gate: true,
                compliance_gate: false,
                analysis_gate: false,
                seed: 7,
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        assert_eq!(report.smelly_requirements_merged, 0);
        assert!(report.vulnerabilities_deployed > 0);
    }

    #[test]
    fn automated_beats_manual_on_exposure() {
        let seed = 21;
        let automated = run(
            &PipelineConfig {
                seed,
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        let manual = run(
            &PipelineConfig {
                seed,
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                analysis_gate: false,
                detection: DetectionMode::Periodic {
                    monitor: None,
                    audit: 500,
                },
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        assert!(
            automated.ops.exposure() <= manual.ops.exposure(),
            "automated {} vs manual {}",
            automated.ops.exposure(),
            manual.ops.exposure()
        );
        assert!(automated.ops.mean_detection_latency() <= manual.ops.mean_detection_latency());
    }

    #[test]
    fn incremental_and_batch_analysis_gates_agree() {
        for seed in [5, 13, 21] {
            let base = PipelineConfig {
                commits: 60,
                bad_artifact_rate: 0.3,
                seed,
                ..PipelineConfig::default()
            };
            let incremental = run(
                &PipelineConfig {
                    incremental_analysis: true,
                    ..base
                },
                &Telemetry::off(),
            );
            let batch = run(
                &PipelineConfig {
                    incremental_analysis: false,
                    ..base
                },
                &Telemetry::off(),
            );
            assert_eq!(
                incremental, batch,
                "seed {seed}: incremental gating must not change any verdict"
            );
        }
    }

    #[test]
    fn incremental_runs_export_cache_counters() {
        let registry = vdo_obs::Registry::new();
        let report = run(
            &PipelineConfig {
                commits: 40,
                bad_artifact_rate: 0.3,
                seed: 5,
                ..PipelineConfig::default()
            },
            &with_registry(&registry),
        );
        let snap = registry.snapshot();
        let applies = snap
            .counter("pipeline.analysis.incr.applies")
            .expect("incremental gate records applies");
        assert!(applies > 0, "analysis gate ran incrementally");
        assert!(snap.counter("pipeline.analysis.incr.misses").unwrap_or(0) > 0);
        assert_eq!(
            snap.counter("pipeline.analysis.incr.reverts").unwrap_or(0),
            report.rejected_analysis as u64,
            "every analysis rejection rolls its delta back"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PipelineConfig {
            seed: 13,
            commits: 30,
            ..PipelineConfig::default()
        };
        assert_eq!(run(&cfg, &Telemetry::off()), run(&cfg, &Telemetry::off()));
    }

    #[test]
    fn observed_run_mirrors_the_report_in_counters() {
        let registry = vdo_obs::Registry::new();
        let cfg = PipelineConfig {
            commits: 40,
            seed: 5,
            ..PipelineConfig::default()
        };
        let report = run(&cfg, &with_registry(&registry));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pipeline.commits"), Some(40));
        assert_eq!(
            snap.counter("pipeline.rejected.requirements"),
            Some(report.rejected_requirements as u64)
        );
        assert_eq!(
            snap.counter("pipeline.rejected.analysis").unwrap_or(0),
            report.rejected_analysis as u64
        );
        assert_eq!(
            snap.counter("pipeline.merged"),
            Some((report.commits - report.rejected_total()) as u64)
        );
        assert_eq!(
            snap.counter("ops.drift_events"),
            Some(report.ops.drift_events)
        );
        assert_eq!(snap.span_count("pipeline"), Some(1));
        assert_eq!(snap.span_count("pipeline/dev"), Some(1));
        assert_eq!(snap.span_count("pipeline/ops"), Some(1));
        assert!(
            snap.counter("core.checks").unwrap_or(0) > 0,
            "planner instrumentation accumulates in the same registry"
        );
    }

    #[test]
    fn observed_and_plain_runs_agree() {
        let cfg = PipelineConfig {
            commits: 30,
            seed: 9,
            ..PipelineConfig::default()
        };
        let plain = run(&cfg, &Telemetry::off());
        let observed = run(&cfg, &with_registry(&vdo_obs::Registry::new()));
        assert_eq!(plain, observed, "instrumentation must not change behaviour");
    }

    #[test]
    fn equal_seed_observed_runs_have_identical_fingerprints() {
        let cfg = PipelineConfig {
            commits: 30,
            seed: 17,
            ..PipelineConfig::default()
        };
        let a = vdo_obs::Registry::new();
        let _ = run(&cfg, &with_registry(&a));
        let b = vdo_obs::Registry::new();
        let _ = run(&cfg, &with_registry(&b));
        assert_eq!(
            a.snapshot().deterministic_fingerprint(),
            b.snapshot().deterministic_fingerprint()
        );
    }

    #[test]
    fn traced_run_resolves_every_incident_to_a_requirement_root() {
        let cfg = PipelineConfig {
            commits: 20,
            ops_duration: 800,
            drift_rate: 0.05,
            seed: 5,
            ..PipelineConfig::default()
        };
        let journal = Journal::new();
        let report = run(&cfg, &with_journal(&journal));
        assert!(!report.ops.incidents.is_empty(), "drift must bite");
        let snap = journal.snapshot();
        for incident in &report.ops.incidents {
            let t = incident.trace.expect("traced runs stamp every incident");
            let root = snap
                .root_event(t.trace_id)
                .expect("incident trace resolves to a root event");
            assert_eq!(
                root.name, "requirement.ingested",
                "the chain starts at requirement ingestion"
            );
        }
        // The development phase journalled the full causal chain too:
        // rejected commits stop at their failing gate, merged commits
        // clear all four.
        let verdicts = snap.events_named("gate.verdict");
        let merged = cfg.commits - report.rejected_total();
        assert!(verdicts.len() >= 4 * merged, "merged commits clear 4 gates");
        assert_eq!(snap.events_named("commit.ingested").len(), cfg.commits);
        assert!(!snap.events_named("pipeline.deploy").is_empty());
        assert!(!snap.events_named("core.enforce").is_empty());
        assert_eq!(snap.dropped(), 0, "default capacity holds the run");
    }

    #[test]
    fn journaled_run_streams_the_closed_loop_to_disk() {
        let dir = std::env::temp_dir().join(format!("vdo-pipeline-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PipelineConfig {
            commits: 15,
            ops_duration: 500,
            seed: 5,
            ..PipelineConfig::default()
        };
        let sink = vdo_trace::DirWriter::create(&dir, "vdo-journal v1\nsource=pipeline\n").unwrap();
        let journal = Journal::with_sink(vdo_trace::JournalConfig::default(), Box::new(sink));
        let report = run(&cfg, &with_journal(&journal));
        journal.sync();
        let disk = vdo_trace::JournalDir::open(&dir).unwrap();
        assert_eq!(disk.header().unwrap(), "vdo-journal v1\nsource=pipeline\n");
        assert_eq!(
            disk.event_count().unwrap(),
            journal.accepted(),
            "the durable stream holds every accepted event"
        );
        let names: Vec<String> = disk
            .events()
            .unwrap()
            .into_iter()
            .map(|(_, e)| e.name.to_string())
            .collect();
        assert_eq!(
            names.iter().filter(|n| *n == "commit.ingested").count(),
            cfg.commits
        );
        assert!(names.iter().any(|n| n == "gate.verdict"));
        assert!(names.iter().any(|n| n == "pipeline.deploy"));
        // Behaviour is untouched by the sink.
        assert_eq!(
            report.to_summary(),
            run(&cfg, &Telemetry::off()).to_summary()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_and_untraced_runs_agree_up_to_trace_stamps() {
        let cfg = PipelineConfig {
            commits: 20,
            ops_duration: 600,
            seed: 9,
            ..PipelineConfig::default()
        };
        let plain = run(&cfg, &Telemetry::off());
        let traced = run(&cfg, &with_journal(&Journal::new()));
        assert_eq!(plain.to_summary(), traced.to_summary());
        assert_eq!(plain.rejected_total(), traced.rejected_total());
        assert_eq!(
            plain
                .ops
                .incidents
                .iter()
                .map(|i| (i.introduced_at, i.detected_at, i.found_by_monitor))
                .collect::<Vec<_>>(),
            traced
                .ops
                .incidents
                .iter()
                .map(|i| (i.introduced_at, i.detected_at, i.found_by_monitor))
                .collect::<Vec<_>>(),
            "tracing must not change behaviour"
        );
        assert!(plain.ops.incidents.iter().all(|i| i.trace.is_none()));
        assert!(traced.ops.incidents.iter().all(|i| i.trace.is_some()));
    }

    #[test]
    fn equal_seed_traced_runs_have_identical_journal_fingerprints() {
        let cfg = PipelineConfig {
            commits: 15,
            ops_duration: 500,
            seed: 17,
            ..PipelineConfig::default()
        };
        let a = Journal::new();
        let _ = run(&cfg, &with_journal(&a));
        let b = Journal::new();
        let _ = run(&cfg, &with_journal(&b));
        assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
        let c = Journal::new();
        let _ = run(&PipelineConfig { seed: 18, ..cfg }, &with_journal(&c));
        assert_ne!(
            a.snapshot().fingerprint(),
            c.snapshot().fingerprint(),
            "different seeds give different journals"
        );
    }

    #[test]
    fn report_serialises_to_json() {
        let report = run(
            &PipelineConfig {
                commits: 20,
                seed: 3,
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        let json = serde::json::to_string(&report);
        assert!(json.contains("\"commits\":20"));
        assert!(json.contains("\"ops\""));
        assert!(json.contains("\"exposure\""));
        assert!(json.contains("\"rejected_analysis\""));
        assert!(json.contains("\"analysis_findings\""));
    }

    #[test]
    fn summary_renders_consistent_numbers() {
        let report = run(
            &PipelineConfig {
                commits: 30,
                seed: 2,
                ..PipelineConfig::default()
            },
            &Telemetry::off(),
        );
        let s = report.to_summary();
        assert!(s.contains("30 commits"));
        assert!(s.contains(&format!("{} rejected", report.rejected_total())));
        assert!(s.contains(&format!("{} incidents", report.ops.incidents.len())));
        assert_eq!(report.to_string(), s);
        assert_eq!(
            report.rejected_total(),
            report.rejected_requirements
                + report.rejected_compliance
                + report.rejected_tests
                + report.rejected_analysis
        );
    }
}
