//! E3 — STIG check/enforce convergence over host fleets.
//!
//! Regenerates: compliance sweep cost vs fleet size, plus the check-only
//! baseline (assessment without remediation). The remediation table per
//! drift rate is E3 in `exp_report`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use vdo_core::{PlannerConfig, RemediationPlanner};
use vdo_host::{FleetConfig, FleetStore, UnixHost};
use vdo_stigs::ubuntu;

/// A half-drifted fleet of `size` hosts, materialized once so the timed
/// closures measure only checking and enforcing.
fn hosts(size: usize) -> Vec<UnixHost> {
    let config = FleetConfig::builder()
        .size(size)
        .drift_probability(0.5)
        .drift_events_per_host(3)
        .seed(1)
        .build()
        .expect("valid fleet config");
    let store = FleetStore::generate(&config);
    (0..size).map(|i| store.materialize_unix(i)).collect()
}

fn bench_fleet(c: &mut Criterion) {
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::new(PlannerConfig::default());

    let mut group = c.benchmark_group("E3_check_only");
    for size in [10usize, 100, 500] {
        let fleet = hosts(size);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &fleet, |b, fleet| {
            b.iter(|| {
                fleet
                    .iter()
                    .map(|h| {
                        catalog
                            .check_all(h)
                            .iter()
                            .filter(|(_, v)| v.is_fail())
                            .count()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("E3_check_enforce");
    for size in [10usize, 100, 500] {
        let fleet = hosts(size);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &fleet, |b, fleet| {
            b.iter_batched(
                || fleet.clone(),
                |mut fleet| {
                    for host in &mut fleet {
                        planner.run(&catalog, host);
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_fleet
}
criterion_main!(benches);
