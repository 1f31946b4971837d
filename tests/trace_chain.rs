//! The tracing acceptance criteria as an integration test: every
//! incident raised in a gated E10 (periodic monitor) or E11
//! (event-driven) run
//! carries a [`TraceContext`] whose root resolves back to the
//! originating catalogue requirement's ingestion event, and equal-seed
//! runs produce identical journal fingerprints at any worker count.

use veridevops::core::RemediationPlanner;
use veridevops::host::UnixHost;
use veridevops::pipeline::{run, OperationsPhase, PipelineConfig, SocConfig};
use veridevops::stigs::ubuntu;
use veridevops::trace::{Journal, Telemetry, TraceContext};

fn scenario(seed: u64) -> PipelineConfig {
    PipelineConfig {
        commits: 30,
        ops_duration: 1_200,
        drift_rate: 0.04,
        seed,
        ..PipelineConfig::default()
    }
}

/// Telemetry that journals into `journal` with requirement roots minted
/// from `seed`, and records no metrics.
fn with_journal(journal: &Journal, seed: u64) -> Telemetry {
    Telemetry {
        journal: journal.clone(),
        trace_seed: seed,
        ..Telemetry::off()
    }
}

/// E10, gated, periodic monitor: each incident's trace root is a
/// catalogue requirement's `requirement.ingested` event, and the
/// root's trace id equals `TraceContext::root(seed, finding_id)` for
/// the violated rule.
#[test]
fn gated_polling_incidents_resolve_to_requirement_roots() {
    let seed = 7;
    let journal = Journal::new();
    let report = run(&scenario(seed), &with_journal(&journal, seed));
    assert!(
        !report.ops.incidents.is_empty(),
        "workload must raise incidents for the test to mean anything"
    );

    let snap = journal.snapshot();
    assert_eq!(snap.dropped(), 0, "default capacity must hold this run");
    let catalog = ubuntu::catalog();
    let rule_roots: Vec<(String, TraceContext)> = catalog
        .iter()
        .map(|e| {
            let rule = e.spec().finding_id();
            (rule.to_string(), TraceContext::root(seed, rule))
        })
        .collect();

    for incident in &report.ops.incidents {
        let trace = incident.trace.expect("traced run stamps every incident");
        let (rule, _) = rule_roots
            .iter()
            .find(|(_, root)| root.trace_id == trace.trace_id)
            .expect("incident trace id is a catalogue requirement root");
        let root = snap
            .root_event(trace.trace_id)
            .expect("journal holds the trace's root event");
        assert_eq!(root.name, "requirement.ingested");
        assert!(
            root.fields
                .iter()
                .any(|(k, v)| *k == "rule" && v.to_string() == *rule),
            "root ingestion event names the violated rule {rule}"
        );
    }
}

/// E11, event-driven: the SOC engine mints the same requirement roots,
/// so incidents resolve identically — and the journal fingerprint is
/// invariant under the monitor pool's worker count.
#[test]
fn event_driven_incidents_resolve_and_fingerprints_ignore_worker_count() {
    let catalog = ubuntu::catalog();
    let seed = 11;
    let mut fingerprints = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut host = UnixHost::baseline_ubuntu_1804();
        RemediationPlanner::default().run(&catalog, &mut host);
        let journal = Journal::new();
        let report = OperationsPhase::new(&catalog)
            .run(
                &mut host,
                &SocConfig {
                    duration: 600,
                    drift_rate: 0.05,
                    workers,
                    seed,
                    ..SocConfig::default()
                },
                &with_journal(&journal, seed),
            )
            .expect("valid config");
        assert!(!report.incidents.is_empty());
        let snap = journal.snapshot();
        for incident in &report.incidents {
            let trace = incident.trace.expect("traced run stamps every incident");
            let root = snap
                .root_event(trace.trace_id)
                .expect("journal holds the trace's root event");
            assert_eq!(root.name, "requirement.ingested");
        }
        fingerprints.push(snap.fingerprint());
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[1], fingerprints[2]);
}

/// Tracing is an observer: the traced run's report equals the plain
/// run's, and equal seeds give byte-identical fingerprints while
/// different seeds give different ones.
#[test]
fn tracing_is_deterministic_and_free_of_side_effects() {
    let fingerprint = |seed: u64| {
        let journal = Journal::new();
        let report = run(&scenario(seed), &with_journal(&journal, seed));
        (report.to_summary(), journal.snapshot().fingerprint())
    };
    let (summary_a, fp_a) = fingerprint(21);
    let (summary_b, fp_b) = fingerprint(21);
    assert_eq!(summary_a, summary_b);
    assert_eq!(fp_a, fp_b, "equal seeds fingerprint identically");
    let (_, fp_c) = fingerprint(22);
    assert_ne!(fp_a, fp_c, "different seeds diverge");
}
