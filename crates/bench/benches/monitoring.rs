//! E4 / A2 — runtime-monitor detection latency vs polling period.
//!
//! Regenerates: the latency/cost trade-off of `MonitoringLoop`
//! (detection latency grows with the polling period while the number of
//! compliance checks — the CPU cost proxy — shrinks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vdo_bench::workloads;
use vdo_core::CheckStatus;
use vdo_corpus::traces::ViolationTrace;
use vdo_specpat::{ObserverAutomaton, PatternKind, Scope, SpecPattern};
use vdo_temporal::{MonitorOutcome, MonitoringLoop};

/// The compliance invariant `G up`: the catalogue's Globally /
/// Universality entry.
fn always_up() -> ObserverAutomaton {
    let pattern = SpecPattern::new(Scope::Globally, PatternKind::universality("up"));
    ObserverAutomaton::for_pattern(&pattern).expect("observer")
}

fn up(up: &bool) -> CheckStatus {
    CheckStatus::from(*up)
}

fn print_latency_table() {
    println!("\n[E4/A2] detection latency and polling cost vs period (trace 10k ticks)");
    println!(
        "{:>8} {:>12} {:>10} {:>8}",
        "PERIOD", "MEAN LATENCY", "MAX LATENCY", "POLLS"
    );
    let observer = always_up();
    for period in [1u64, 5, 10, 50, 100, 500] {
        let mut latencies = Vec::new();
        let mut polls = 0;
        // Average over violations planted at 32 different positions.
        for k in 0..32u64 {
            let w = ViolationTrace::at(10_000, 313 * (k + 1) % 9_000 + 500);
            let report = MonitoringLoop::new(period)
                .expect("nonzero period")
                .run(observer.monitor(&[("up", &up)]).expect("bound"), &w.trace);
            polls += report.polls;
            if let MonitorOutcome::ViolationDetected(_) = report.outcome {
                latencies.push(report.detection_latency(w.violation_tick).unwrap() as f64);
            }
        }
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let max = latencies.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:>8} {:>12.1} {:>10.0} {:>8}",
            period,
            mean,
            max,
            polls / 32
        );
    }
}

fn bench_monitoring(c: &mut Criterion) {
    print_latency_table();

    let mut group = c.benchmark_group("E4_monitor_run");
    let workload = workloads::violation_trace(100_000);
    let observer = always_up();
    for period in [1u64, 10, 100] {
        group.bench_with_input(
            BenchmarkId::from_parameter(period),
            &period,
            |b, &period| {
                let looper = MonitoringLoop::new(period).expect("nonzero period");
                b.iter(|| {
                    let monitor = observer.monitor(&[("up", &up)]).expect("bound");
                    looper.run(monitor, &workload.trace)
                })
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
    targets = bench_monitoring
}
criterion_main!(benches);
