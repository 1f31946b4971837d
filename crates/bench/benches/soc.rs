//! E11 — event-driven SOC engine vs the polling `MonitoringLoop` idea.
//!
//! Regenerates: detection latency and check cost of the `vdo-soc`
//! sharded-bus engine in its continuous mode against its periodic mode
//! (a monitor every 10 ticks, the host-scale `MonitoringLoop`) on the
//! same fleets and drift, across fleet sizes 1–1,000, and worker-pool
//! scaling 1–16 under simulated per-batch I/O latency. On a single
//! core the worker sweep shows scheduling overhead, not speedup —
//! the `io_latency` column is where extra workers pay off.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_soc::{DetectionMode, SocConfig, SocEngine};
use vdo_stigs::ubuntu;

fn compliant_fleet(n: usize) -> Vec<UnixHost> {
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    (0..n)
        .map(|_| {
            let mut h = UnixHost::baseline_ubuntu_1804();
            planner.run(&catalog, &mut h);
            h
        })
        .collect()
}

/// Ticks per run, scaled down for big fleets so the table stays fast.
fn ticks_for(hosts: usize) -> u64 {
    match hosts {
        0..=10 => 1_000,
        11..=100 => 500,
        _ => 100,
    }
}

fn print_fleet_table() {
    println!("\n[E11] event-driven SOC vs polling monitor (drift 2%/tick, polling period 10)");
    println!(
        "{:>6} {:>14} {:>7} {:>10} {:>13} {:>10} {:>10} {:>12}",
        "HOSTS", "ENGINE", "DRIFT", "INCIDENTS", "MEAN LATENCY", "EXPOSURE", "CHECKS", "EVENTS/SEC"
    );
    let catalog = ubuntu::catalog();
    let modes = [
        ("event-driven", DetectionMode::Continuous),
        (
            "polling-10",
            DetectionMode::Periodic {
                monitor: Some(10),
                audit: 0,
            },
        ),
    ];
    for hosts in [1usize, 10, 100, 1_000] {
        let duration = ticks_for(hosts);
        // One engine, one fleet and one seed per row: the modes differ
        // only in their detection policy.
        for (name, detection) in modes {
            let engine = SocEngine::new(
                &catalog,
                SocConfig {
                    duration,
                    drift_rate: 0.02,
                    workers: 4,
                    shards: 16,
                    seed: 11,
                    detection,
                    ..SocConfig::default()
                },
            )
            .expect("valid config");
            let report = engine.run(&mut compliant_fleet(hosts));
            println!(
                "{:>6} {:>14} {:>7} {:>10} {:>13.1} {:>9.2}% {:>10} {:>12.0}",
                hosts,
                name,
                report.drift_events,
                report.incidents.len(),
                report.mean_detection_latency(),
                100.0 * report.exposure(hosts),
                report.metrics.checks_run,
                report.metrics.events_per_sec,
            );
        }
    }
}

fn print_worker_table() {
    println!("\n[E11] worker-pool scaling (1,000 hosts, 100 ticks, 200us simulated I/O per batch)");
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "WORKERS", "WALL MS", "INCIDENTS", "EVENTS/SEC"
    );
    let catalog = ubuntu::catalog();
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 4, 8, 16] {
        let mut fleet = compliant_fleet(1_000);
        let engine = SocEngine::new(
            &catalog,
            SocConfig {
                duration: 100,
                drift_rate: 0.02,
                workers,
                shards: 32,
                seed: 11,
                io_latency: Duration::from_micros(200),
                ..SocConfig::default()
            },
        )
        .expect("valid config");
        let start = Instant::now();
        let report = engine.run(&mut fleet);
        let wall = start.elapsed();
        // The incident log must not depend on the worker count.
        let log = report.incident_log();
        match &reference {
            None => reference = Some(log),
            Some(expected) => assert_eq!(*expected, log, "incident log varies with workers"),
        }
        println!(
            "{:>8} {:>10.1} {:>10} {:>12.0}",
            workers,
            wall.as_secs_f64() * 1e3,
            report.incidents.len(),
            report.metrics.events_per_sec,
        );
    }
}

fn bench_soc(c: &mut Criterion) {
    print_fleet_table();
    print_worker_table();

    let catalog = ubuntu::catalog();

    let mut group = c.benchmark_group("E11_fleet_size");
    group.sample_size(10);
    for hosts in [1usize, 10, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(hosts), &hosts, |b, &hosts| {
            b.iter_batched(
                || compliant_fleet(hosts),
                |mut fleet| {
                    let engine = SocEngine::new(
                        &catalog,
                        SocConfig {
                            duration: 100,
                            drift_rate: 0.02,
                            workers: 4,
                            shards: 16,
                            seed: 11,
                            ..SocConfig::default()
                        },
                    )
                    .expect("valid config");
                    engine.run(&mut fleet)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("E11_workers");
    group.sample_size(10);
    for workers in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter_batched(
                    || compliant_fleet(64),
                    |mut fleet| {
                        let engine = SocEngine::new(
                            &catalog,
                            SocConfig {
                                duration: 100,
                                drift_rate: 0.02,
                                workers,
                                shards: 16,
                                seed: 11,
                                ..SocConfig::default()
                            },
                        )
                        .expect("valid config");
                        engine.run(&mut fleet)
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_soc
}
criterion_main!(benches);
