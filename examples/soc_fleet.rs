//! Event-driven SOC over a 100-host fleet (the experiment E11 scenario
//! as a demo).
//!
//! A pool of four monitor workers watches a fleet of 100 Ubuntu hosts
//! through the sharded security-event bus. Seeded drift breaks hosts at
//! random; every drift event is checked on the tick it
//! happens (zero detection latency), a TEARS guarded assertion watches
//! the brute-force telemetry, and the remediation dispatcher repairs
//! what it can — with injected faults forcing retries, exponential
//! backoff, and the occasional dead-lettered incident.
//!
//! Run with: `cargo run --example soc_fleet`

use veridevops::core::RemediationPlanner;
use veridevops::host::UnixHost;
use veridevops::soc::{RemediationConfig, SocConfig, SocEngine};
use veridevops::stigs::ubuntu;

fn main() {
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let mut fleet: Vec<UnixHost> = (0..100)
        .map(|_| {
            let mut h = UnixHost::baseline_ubuntu_1804();
            planner.run(&catalog, &mut h);
            h
        })
        .collect();

    let config = SocConfig {
        duration: 500,
        drift_rate: 0.02,
        workers: 4,
        shards: 16,
        seed: 42,
        tears_assertion: Some(
            r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
        ),
        remediation: RemediationConfig {
            fault_rate: 0.2,
            ..RemediationConfig::default()
        },
        ..SocConfig::default()
    };
    println!(
        "== event-driven SOC: {} hosts, {} ticks, {} workers over {} shards ==",
        fleet.len(),
        config.duration,
        config.workers,
        config.shards
    );

    let engine = SocEngine::new(&catalog, config).expect("valid configuration");
    let report = engine.run(&mut fleet);

    println!("\nincidents (first 10 of {}):", report.incidents.len());
    println!(
        "{:<8} {:<12} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "HOST", "RULE", "KIND", "BROKE@", "FOUND@", "FIXED@", "ATTEMPTS"
    );
    for i in report.incidents.iter().take(10) {
        println!(
            "{:<8} {:<12} {:>6} {:>9} {:>9} {:>9} {:>9}",
            format!("host-{:02}", i.host),
            i.rule,
            i.kind.to_string(),
            i.introduced_at,
            i.detected_at,
            i.resolved_at
                .map_or_else(|| "-".to_string(), |t| t.to_string()),
            i.attempts
        );
    }

    let m = &report.metrics;
    println!("\nmetrics snapshot:");
    println!("  drift events:        {}", report.drift_events);
    println!("  incidents:           {}", report.incidents.len());
    println!(
        "  mean detection:      {:.1} ticks",
        report.mean_detection_latency()
    );
    println!(
        "  exposure:            {:.2}%",
        100.0 * report.exposure(fleet.len())
    );
    println!("  events published:    {}", m.events_published);
    println!("  events processed:    {}", m.events_processed);
    println!("  batches:             {}", m.batches);
    println!("  checks run:          {}", m.checks_run);
    println!("  max queue depth:     {}", m.max_queue_depth);
    println!(
        "  remediations:        {} ok, {} retries, {} dead-lettered",
        m.remediations, m.retries, m.dead_letters
    );
    println!("  throughput:          {:.0} events/sec", m.events_per_sec);
    if !report.dead_letters.is_empty() {
        println!("\ndead-letter queue:");
        for dl in &report.dead_letters {
            println!(
                "  host-{:02} {} abandoned at tick {} after {} attempts",
                dl.task.host, dl.task.rule, dl.abandoned_at, dl.task.attempt
            );
        }
    }

    assert!(
        report
            .incidents
            .iter()
            .filter(|i| i.kind == veridevops::soc::DetectionKind::Stig)
            .all(|i| i.detected_at == i.introduced_at),
        "event-driven detection is same-tick"
    );
    println!("\nevery STIG violation was detected on the tick it happened");
}
