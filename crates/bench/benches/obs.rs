//! E12 — cost of the `vdo-obs` recorder on the SOC fleet workload.
//!
//! Regenerates: the enabled-vs-disabled recorder comparison behind the
//! "near-zero cost when disabled" claim. Every instrument in `vdo-obs`
//! is an `Option<Arc<_>>` handle, so the disabled side pays one branch
//! per event; the enabled side adds relaxed atomic updates. The two
//! benchmark arms run the identical seeded engine workload, differing
//! only in which [`SocMetrics`] recorder is passed in, plus a third arm
//! exporting into a shared [`vdo_obs::Registry`] (the closed-loop
//! configuration used by `exp_report`'s F1 section).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_soc::{SocConfig, SocEngine, SocMetrics, SocTracing};
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

fn soc_config() -> SocConfig {
    SocConfig {
        duration: 100,
        drift_rate: 0.02,
        workers: 4,
        shards: 16,
        seed: 11,
        ..SocConfig::default()
    }
}

fn bench_obs(c: &mut Criterion) {
    let catalog = ubuntu::catalog();

    let mut group = c.benchmark_group("E12_obs_overhead");
    group.sample_size(10);
    for mode in ["disabled", "enabled", "registry"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter_batched(
                || compliant_fleet(64),
                |mut fleet| {
                    let registry = vdo_obs::Registry::new();
                    let metrics = match mode {
                        "disabled" => SocMetrics::disabled(),
                        "enabled" => SocMetrics::new(),
                        _ => SocMetrics::in_registry(&registry, "soc"),
                    };
                    let engine = SocEngine::new(&catalog, soc_config()).expect("valid config");
                    engine.run_traced(&mut fleet, &metrics, &SocTracing::disabled())
                },
                criterion::BatchSize::SmallInput,
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
    targets = bench_obs
}
criterion_main!(benches);
