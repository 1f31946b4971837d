//! Golden-file test for the engine's overload path: a fleet larger than
//! the bus can hold in one tick, so shard queues fill, events defer to
//! the next tick and SLO alerts published from the accounting phase
//! meet full queues too. The incident log, the bus counters and the
//! order of the Debug-floor journal's events must match
//! `tests/golden/backpressure_seed3.txt` byte for byte at 1, 2 and 4
//! workers. Regenerate after an intentional change with
//! `BLESS_GOLDEN=1 cargo test -p vdo-soc --test backpressure_golden`.

use std::fmt::Write as _;

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_soc::{RemediationConfig, SloPolicy, SocConfig, SocEngine, SocMetrics, SocTracing};
use vdo_stigs::ubuntu;
use vdo_trace::{BurnRateRule, Journal, SloSignal};

/// Runs the overloaded scenario on `workers` threads and renders the
/// pinned outputs.
fn overloaded_run(workers: usize) -> String {
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let mut fleet: Vec<UnixHost> = (0..80)
        .map(|_| {
            let mut h = UnixHost::baseline_ubuntu_1804();
            planner.run(&catalog, &mut h);
            h
        })
        .collect();
    let engine = SocEngine::new(
        &catalog,
        SocConfig {
            duration: 60,
            drift_rate: 0.08,
            workers,
            shards: 2,
            queue_capacity: 32,
            seed: 3,
            tears_assertion: Some(
                r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
            ),
            attack_rate: 0.05,
            remediation: RemediationConfig {
                max_retries: 4,
                backoff_base: 2,
                fault_rate: 0.3,
            },
            ..SocConfig::default()
        },
    )
    .expect("valid config");
    // One rule per burn threshold: as the backlog grows each one
    // enters breach on a later tick, so alerts keep landing on a
    // saturated shard and eat into the next tick's room.
    let rules = [1.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0]
        .into_iter()
        .map(|factor| BurnRateRule {
            name: format!("deferral-burn-{factor}"),
            signal: SloSignal::CounterRatio {
                bad: "soc.events_deferred".into(),
                total: "soc.events_published".into(),
            },
            objective: 0.01,
            long_window: 10,
            short_window: 3,
            factor,
        })
        .collect();
    let tracing = SocTracing {
        journal: Journal::new(),
        trace_seed: 3,
        slo: Some(SloPolicy { rules, period: 1 }),
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
        ("max_queue_depth", m.max_queue_depth),
    ] {
        writeln!(out, "{name} {value}").unwrap();
    }
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
fn overloaded_engine_matches_golden_file_at_any_worker_count() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/backpressure_seed3.txt"
    );
    let single = overloaded_run(1);
    assert!(
        !single.contains("events_deferred 0\n"),
        "the scenario must drive the bus into deferral"
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap())
            .expect("create golden dir");
        std::fs::write(path, &single).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    for (workers, actual) in [(1, single), (2, overloaded_run(2)), (4, overloaded_run(4))] {
        assert_eq!(
            actual, expected,
            "overloaded run at {workers} workers drifted from \
             tests/golden/backpressure_seed3.txt; re-bless with BLESS_GOLDEN=1 \
             if the change is intentional"
        );
    }
}
