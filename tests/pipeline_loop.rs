//! F1 — the VeriDevOps closed loop (the DATE 2021 paper's figure) as an
//! integration test: gates at development, monitors at operations, and
//! the paper's headline claim that automation reduces exposure.

use veridevops::pipeline::{run, DetectionMode, PipelineConfig};
use veridevops::trace::Telemetry;

fn base(seed: u64) -> PipelineConfig {
    PipelineConfig {
        commits: 80,
        smelly_commit_rate: 0.3,
        vulnerable_commit_rate: 0.3,
        ops_duration: 3_000,
        drift_rate: 0.02,
        detection: DetectionMode::Periodic {
            monitor: Some(10),
            audit: 500,
        },
        seed,
        ..PipelineConfig::default()
    }
}

#[test]
fn full_loop_blocks_everything_risky() {
    let report = run(&base(1), &Telemetry::off());
    assert_eq!(report.smelly_requirements_merged, 0);
    assert_eq!(report.vulnerabilities_deployed, 0);
    assert!(report.rejected_requirements + report.rejected_compliance > 0);
}

#[test]
fn automated_configuration_dominates_manual_baseline() {
    // Compare across several seeds: gates+monitoring never lose on
    // exposure or detection latency against the unassisted baseline.
    for seed in [2, 3, 5, 8, 13] {
        let automated = run(&base(seed), &Telemetry::off());
        let manual = run(
            &PipelineConfig {
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                detection: DetectionMode::Periodic {
                    monitor: None,
                    audit: 500,
                },
                ..base(seed)
            },
            &Telemetry::off(),
        );
        assert!(
            automated.ops.exposure() <= manual.ops.exposure(),
            "seed {seed}: automated exposure {} > manual {}",
            automated.ops.exposure(),
            manual.ops.exposure()
        );
        assert!(
            automated.ops.mean_detection_latency() <= manual.ops.mean_detection_latency(),
            "seed {seed}: latency regression"
        );
        assert!(manual.vulnerabilities_deployed >= automated.vulnerabilities_deployed);
    }
}

#[test]
fn monitoring_alone_still_catches_operations_drift() {
    let monitored_only = run(
        &PipelineConfig {
            requirements_gate: false,
            compliance_gate: false,
            test_gate: false,
            ..base(4)
        },
        &Telemetry::off(),
    );
    // Vulnerable commits deploy, but the ops monitor finds violations.
    assert!(monitored_only.vulnerabilities_deployed > 0);
    assert!(!monitored_only.ops.incidents.is_empty());
    assert!(monitored_only
        .ops
        .incidents
        .iter()
        .any(|i| i.found_by_monitor));
}

#[test]
fn reports_are_deterministic() {
    assert_eq!(
        run(&base(9), &Telemetry::off()),
        run(&base(9), &Telemetry::off())
    );
}
