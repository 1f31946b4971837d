//! Quickstart: the VeriDevOps closed loop in one run.
//!
//! Walks the DATE 2021 paper's figure end to end: a requirement arrives
//! as natural language → NALABS screens it → the STIG catalogue gives it
//! executable check/enforce semantics → the CI gates block a risky
//! commit → operations monitoring catches drift and repairs it.
//!
//! Run with: `cargo run --example quickstart`

use veridevops::core::{PlannerConfig, RemediationPlanner, Severity};
use veridevops::host::UnixHost;
use veridevops::nalabs::{Analyzer, RequirementDoc};
use veridevops::pipeline::{Commit, ComplianceGate, ConfigChange, RequirementsGate};
use veridevops::pipeline::{DetectionMode, OperationsPhase, SocConfig};
use veridevops::stigs::ubuntu;
use veridevops::trace::Telemetry;

fn main() {
    println!("== VeriDevOps quickstart ==\n");

    // 1. Requirements arrive as natural language; NALABS screens them.
    let analyzer = Analyzer::with_default_metrics();
    let good = RequirementDoc::new(
        "REQ-1",
        "The system shall lock the user session after 15 minutes of inactivity.",
    );
    let bad = RequirementDoc::new(
        "REQ-2",
        "The system may possibly provide adequate security as appropriate, TBD, \
         see section 3.",
    );
    for doc in [&good, &bad] {
        let report = analyzer.analyze(doc);
        println!(
            "NALABS {}: {}",
            doc.id(),
            if report.is_smelly() {
                format!("SMELLY ({})", report.smells().join(", "))
            } else {
                "clean".to_string()
            }
        );
    }

    // 2. Requirements as code: the Ubuntu STIG catalogue is executable.
    let catalog = ubuntu::catalog();
    println!(
        "\nSTIG catalogue: {} enforceable requirements",
        catalog.len()
    );

    // 3. Prevention at development: gates on a commit stream.
    let mut production = UnixHost::baseline_ubuntu_1804();
    let planner = RemediationPlanner::new(PlannerConfig::default());
    let initial = planner.run(&catalog, &mut production);
    println!(
        "initial hardening: {} findings remediated, outcome {:?}",
        initial.report.summary().remediated,
        initial.outcome
    );

    let req_gate = RequirementsGate::new();
    let compliance_gate = ComplianceGate::new(&catalog, Severity::Medium);
    let risky_commit = Commit::new("feat/quick-debug-access")
        .with_requirement(bad.clone())
        .with_change(ConfigChange::InstallPackage(
            "telnetd".into(),
            "0.17".into(),
        ));
    let d1 = req_gate.evaluate(&risky_commit);
    let d2 = compliance_gate.evaluate(&risky_commit, &production);
    println!("\ncommit '{}':", risky_commit.id);
    println!("{d1}");
    println!("{d2}");
    assert!(!d1.passed && !d2.passed, "both gates must reject");

    // 4. Protection at operations: the SOC engine polls the host every
    //    10 ticks (plus an audit every 500); drift is detected and
    //    repaired.
    let ops = OperationsPhase::new(&catalog)
        .run(
            &mut production,
            &SocConfig {
                duration: 2_000,
                drift_rate: 0.03,
                workers: 1,
                seed: 42,
                detection: DetectionMode::Periodic {
                    monitor: Some(10),
                    audit: 500,
                },
                ..SocConfig::default()
            },
            &Telemetry::off(),
        )
        .expect("valid config");
    println!(
        "\noperations: {} drift events, {} incidents detected \
         (mean latency {:.1} ticks), exposure {:.2}%",
        ops.drift_events,
        ops.incidents.len(),
        ops.mean_detection_latency(),
        100.0 * ops.exposure()
    );
    println!("\nloop closed: requirements -> gates -> deployment -> monitoring -> repair");
}
