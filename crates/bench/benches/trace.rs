//! E14 — cost of the `vdo-trace` event journal on the SOC fleet
//! workload.
//!
//! Regenerates: the traced-vs-disabled comparison behind the "<5%
//! journal overhead" claim. The journal handle is an `Option<Arc<_>>`,
//! so the disabled arm pays one branch per would-be event; the traced
//! arm adds shard routing plus a mutex push per event. A third arm
//! measures raw `Journal::emit` throughput in
//! isolation (traced events with fields, the shape the loop emits).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_soc::{SocConfig, SocEngine, SocMetrics, SocTracing};
use vdo_stigs::ubuntu;
use vdo_trace::{Event, Journal, TraceContext};

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

fn bench_trace(c: &mut Criterion) {
    let catalog = ubuntu::catalog();

    let mut group = c.benchmark_group("E14_trace_overhead");
    group.sample_size(10);
    for mode in ["disabled", "traced"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            // Journal construction/teardown happen in the setup and the
            // dropped output — outside the timed routine — because the
            // journal outlives the run (it is exported afterwards).
            b.iter_batched(
                || {
                    let tracing = if mode == "traced" {
                        SocTracing::new(Journal::new(), 11)
                    } else {
                        SocTracing::disabled()
                    };
                    (compliant_fleet(64), tracing)
                },
                |(mut fleet, tracing)| {
                    let metrics = SocMetrics::new();
                    let engine = SocEngine::new(&catalog, soc_config()).expect("valid config");
                    let report = engine.run_traced(&mut fleet, &metrics, &tracing);
                    (report, tracing)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("E14_journal_emit");
    group.sample_size(10);
    group.bench_function("emit_10k_traced_events", |b| {
        let root = TraceContext::root(11, "V-219161");
        b.iter_batched(
            Journal::new,
            |journal| {
                for i in 0..10_000u64 {
                    journal.emit(
                        Event::info("bench.emit")
                            .at(i)
                            .trace(root.child_u64("step", i))
                            .field("host", i % 64)
                            .field("rule", "V-219161"),
                    );
                }
                journal
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_trace
}
criterion_main!(benches);
