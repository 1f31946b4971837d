//! Golden-file test for the closed loop's telemetry: one small gated
//! scenario (development gates, deploys, operations under a periodic
//! monitor) and one event-driven operations phase, both with an
//! enabled registry and
//! journal. The journal's JSONL export and the registry's counters must
//! match `tests/golden/closed_loop_seed21.txt` byte for byte, and the
//! event-driven phase must render identically at 1 and 2 workers.
//! Regenerate after an intentional change with
//! `BLESS_GOLDEN=1 cargo test -p vdo-pipeline --test closed_loop_golden`.

use std::fmt::Write as _;

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_pipeline::{DetectionMode, OperationsPhase, PipelineConfig, SocConfig};
use vdo_stigs::ubuntu;
use vdo_trace::{Journal, Telemetry};

/// The pinned outputs of one run: every journal event as JSONL, then
/// every registry counter.
fn render(out: &mut String, title: &str, telemetry: &Telemetry) {
    writeln!(out, "== {title} journal").unwrap();
    out.push_str(&vdo_trace::export::jsonl(&telemetry.journal.snapshot()));
    writeln!(out, "== {title} counters").unwrap();
    for (name, value) in &telemetry.registry.snapshot().counters {
        writeln!(out, "{name} {value}").unwrap();
    }
}

fn enabled() -> Telemetry {
    Telemetry {
        registry: vdo_obs::Registry::new(),
        journal: Journal::new(),
        trace_seed: 21,
    }
}

fn scenario_run() -> String {
    let telemetry = enabled();
    let config = PipelineConfig {
        commits: 40,
        ops_duration: 400,
        seed: 21,
        ..PipelineConfig::default()
    };
    let report = vdo_pipeline::run(&config, &telemetry);
    let mut out = String::new();
    writeln!(out, "{}", report.to_summary()).unwrap();
    render(&mut out, "scenario", &telemetry);
    out
}

fn event_driven_run(workers: usize) -> String {
    let catalog = ubuntu::catalog();
    let mut host = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default().run(&catalog, &mut host);
    let telemetry = enabled();
    let report = OperationsPhase::new(&catalog)
        .run(
            &mut host,
            &SocConfig {
                duration: 400,
                drift_rate: 0.05,
                workers,
                shards: 4,
                seed: 21,
                detection: DetectionMode::Continuous,
                ..SocConfig::default()
            },
            &telemetry,
        )
        .expect("valid config");
    let mut out = String::new();
    writeln!(
        out,
        "incidents {} drift_events {} checks {}",
        report.incidents.len(),
        report.drift_events,
        report.checks
    )
    .unwrap();
    render(&mut out, "event-driven ops", &telemetry);
    out
}

#[test]
fn closed_loop_telemetry_matches_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/closed_loop_seed21.txt"
    );
    let single = event_driven_run(1);
    assert_eq!(
        event_driven_run(2),
        single,
        "event-driven telemetry must not depend on the worker count"
    );
    let actual = scenario_run() + &single;
    for emitted in [
        "\"nalabs.verdict\"",
        "\"core.enforce\"",
        "\"soc.detection\"",
    ] {
        assert!(actual.contains(emitted), "the run must journal {emitted}");
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &actual).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        actual, expected,
        "closed-loop telemetry drifted from tests/golden/closed_loop_seed21.txt; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}
