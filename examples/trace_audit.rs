//! Causal audit of one incident: run the gated closed loop with the
//! event journal on, pick an operations incident, and walk its trace
//! back to the requirement that predicted it.
//!
//! Every artifact in a traced run carries a [`TraceContext`] derived
//! deterministically from the run seed: the requirement's ingestion
//! mints the root, gate verdicts and deployments are child spans, and
//! when drift breaks that requirement at operations the incident is
//! stamped with the same trace id. The journal therefore answers the
//! auditor's question — "which requirement does this incident trace
//! back to, and what happened along the way?" — with an exact event
//! chain, identical on every equal-seed run.
//!
//! Run with: `cargo run --example trace_audit`

use veridevops::pipeline::{run, PipelineConfig};
use veridevops::trace::{export, Journal, Telemetry};

/// Telemetry that journals into `journal` and records no metrics.
fn with_journal(journal: &Journal) -> Telemetry {
    Telemetry {
        journal: journal.clone(),
        ..Telemetry::off()
    }
}

fn main() {
    // -- The gated loop, with the journal recording. --------------------
    let config = PipelineConfig {
        commits: 30,
        ops_duration: 1_200,
        drift_rate: 0.04,
        seed: 7,
        ..PipelineConfig::default()
    };
    let journal = Journal::new();
    let report = run(&config, &with_journal(&journal));
    let snapshot = journal.snapshot();
    println!(
        "seed {}: {} commits gated, {} incidents at operations, {} journal events ({} dropped)\n",
        config.seed,
        report.commits,
        report.ops.incidents.len(),
        snapshot.events.len(),
        snapshot.dropped(),
    );

    // -- Pick the first incident and walk its causal chain. -------------
    let incident = report
        .ops
        .incidents
        .first()
        .expect("this workload raises incidents");
    let trace = incident.trace.expect("traced runs stamp every incident");
    println!(
        "auditing incident: introduced at tick {}, detected at tick {} (latency {})",
        incident.introduced_at,
        incident.detected_at,
        incident.latency(),
    );

    let root = snapshot
        .root_event(trace.trace_id)
        .expect("every incident trace roots at an ingestion event");
    println!("rooted at: {}\n", root.canonical_line().trim_start());

    println!("causal chain for trace {:?}:", trace.trace_id);
    for event in snapshot.events_for_trace(trace.trace_id) {
        println!("  {}", event.canonical_line());
    }

    // -- The same chain, in exporter form. ------------------------------
    let jsonl = export::jsonl(&snapshot);
    let incident_lines = jsonl.lines().filter(|l| l.contains("ops.incident")).count();
    println!(
        "\nexporters: JSONL journal is {} lines ({} incident records); \
         fingerprint is stable across equal-seed runs:",
        jsonl.lines().count(),
        incident_lines,
    );
    let again = Journal::new();
    let _ = run(&config, &with_journal(&again));
    println!(
        "  fingerprints equal: {}",
        snapshot.fingerprint() == again.snapshot().fingerprint()
    );
}
