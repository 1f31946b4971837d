//! Golden-file test for the engine's steady-state path: a fleet the bus
//! holds without deferral, with TEARS telemetry armed, seeded drift and
//! attacks, flaky remediation (retries and dead letters) and a few SLO
//! burn rules. This is the path every STIG re-check, check-verdict
//! delivery, `SignalTick` and remediation sweep runs through. The
//! incident log, the engine counters and the order of the Debug-floor
//! journal's events must match
//! `tests/golden/steady_state_seed5.txt` byte for byte at 1, 2 and 4
//! workers. Regenerate after an intentional change with
//! `BLESS_GOLDEN=1 cargo test -p vdo-soc --test steady_state_golden`.

use std::fmt::Write as _;

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_soc::{RemediationConfig, SloPolicy, SocConfig, SocEngine, SocMetrics, SocTracing};
use vdo_stigs::ubuntu;
use vdo_trace::{BurnRateRule, Journal, SloSignal};

/// Runs the steady-state scenario on `workers` threads and renders the
/// pinned outputs.
fn steady_run(workers: usize) -> String {
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let hardened = {
        let mut h = UnixHost::baseline_ubuntu_1804();
        planner.run(&catalog, &mut h);
        h
    };
    let mut fleet: Vec<UnixHost> = vec![hardened; 400];
    let engine = SocEngine::new(
        &catalog,
        SocConfig {
            duration: 120,
            drift_rate: 0.05,
            workers,
            shards: 16,
            seed: 5,
            tears_assertion: Some(
                r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
            ),
            attack_rate: 0.05,
            remediation: RemediationConfig {
                max_retries: 4,
                backoff_base: 2,
                fault_rate: 0.2,
            },
            ..SocConfig::default()
        },
    )
    .expect("valid config");
    let burn = |name: &str, bad: &str, total: &str, objective: f64, factor: f64| BurnRateRule {
        name: name.into(),
        signal: SloSignal::CounterRatio {
            bad: bad.into(),
            total: total.into(),
        },
        objective,
        long_window: 20,
        short_window: 5,
        factor,
    };
    let rules = vec![
        burn("retry-burn", "soc.retries", "soc.remediations", 0.05, 2.0),
        burn(
            "dead-letter-burn",
            "soc.dead_letters",
            "soc.remediations",
            0.01,
            1.0,
        ),
        burn(
            "check-volume",
            "soc.remediations",
            "soc.checks_run",
            0.001,
            1.0,
        ),
    ];
    let tracing = SocTracing {
        journal: Journal::new(),
        trace_seed: 5,
        slo: Some(SloPolicy { rules, period: 4 }),
    };
    let report = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
    let m = &report.metrics;
    let mut out = String::new();
    for (name, value) in [
        ("events_published", m.events_published),
        ("events_deferred", m.events_deferred),
        ("events_processed", m.events_processed),
        ("batches", m.batches),
        ("checks_run", m.checks_run),
        ("remediations", m.remediations),
        ("retries", m.retries),
        ("dead_letters", m.dead_letters),
    ] {
        writeln!(out, "{name} {value}").unwrap();
    }
    writeln!(out, "drift_events {}", report.drift_events).unwrap();
    writeln!(
        out,
        "noncompliant_host_ticks {}",
        report.noncompliant_host_ticks
    )
    .unwrap();
    for alert in &report.slo_alerts {
        writeln!(out, "slo_alert {} at {}", alert.rule, alert.at).unwrap();
    }
    writeln!(out, "journal_accepted {}", tracing.journal.accepted()).unwrap();
    writeln!(out, "journal_order {}", journal_order(&tracing.journal)).unwrap();
    writeln!(out, "{}", report.incident_log()).unwrap();
    out
}

/// FNV-1a over the journal's canonical lines in seq order: unlike the
/// order-free [`vdo_trace::JournalSnapshot::fingerprint`], it changes
/// when the engine emits the same events in another order.
fn journal_order(journal: &Journal) -> String {
    let digest = journal.snapshot().events.iter().fold(FNV_OFFSET, |h, e| {
        fnv1a(fnv1a(h, e.canonical_line().as_bytes()), b"\n")
    });
    format!("{digest:016x}")
}

#[test]
fn steady_state_engine_matches_golden_file_at_any_worker_count() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/steady_state_seed5.txt"
    );
    let single = steady_run(1);
    assert!(
        single.contains("events_deferred 0\n"),
        "the default capacity must hold the whole fleet without deferral"
    );
    for busy in ["retries 0\n", "remediations 0\n"] {
        assert!(!single.contains(busy), "the scenario must exercise {busy}");
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &single).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    for (workers, actual) in [(1, single), (2, steady_run(2)), (4, steady_run(4))] {
        assert_eq!(
            actual, expected,
            "steady-state run at {workers} workers drifted from \
             tests/golden/steady_state_seed5.txt; re-bless with BLESS_GOLDEN=1 \
             if the change is intentional"
        );
    }
}
