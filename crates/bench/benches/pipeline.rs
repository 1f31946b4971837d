//! E10 — the end-to-end pipeline: automated VeriDevOps configuration vs
//! the manual baseline (no gates, audit-only detection).
//!
//! Regenerates: exposure, detection latency, and shipped-vulnerability
//! counts per configuration — the headline comparison of the paper's
//! thesis — plus the cost of running the full loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vdo_pipeline::{run, DetectionMode, PipelineConfig};
use vdo_trace::Telemetry;

/// The manual baseline's detection: the scheduled audit alone.
const AUDIT_ONLY: DetectionMode = DetectionMode::Periodic {
    monitor: None,
    audit: 500,
};

fn configs(seed: u64) -> Vec<(&'static str, PipelineConfig)> {
    let base = PipelineConfig {
        commits: 60,
        ops_duration: 2_000,
        seed,
        ..PipelineConfig::default()
    };
    vec![
        ("automated (gates+monitor)", base),
        (
            "gates only",
            PipelineConfig {
                detection: AUDIT_ONLY,
                ..base
            },
        ),
        (
            "monitor only",
            PipelineConfig {
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                analysis_gate: false,
                ..base
            },
        ),
        (
            "manual baseline",
            PipelineConfig {
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                analysis_gate: false,
                detection: AUDIT_ONLY,
                ..base
            },
        ),
    ]
}

fn print_comparison_table() {
    println!("\n[E10] automated vs manual (mean of seeds 1..6)");
    println!(
        "{:<28} {:>9} {:>9} {:>10} {:>12} {:>10}",
        "CONFIGURATION", "REJECTED", "SHIPPED", "INCIDENTS", "MEAN LATENCY", "EXPOSURE"
    );
    for (name, _) in configs(0) {
        let mut rejected = 0.0;
        let mut shipped = 0.0;
        let mut incidents = 0.0;
        let mut latency = 0.0;
        let mut exposure = 0.0;
        let seeds = [1u64, 2, 3, 4, 5];
        for &seed in &seeds {
            let cfg = configs(seed)
                .into_iter()
                .find(|(n, _)| *n == name)
                .expect("config exists")
                .1;
            let r = run(&cfg, &Telemetry::off());
            rejected += r.rejected_total() as f64;
            shipped += r.vulnerabilities_deployed as f64;
            incidents += r.ops.incidents.len() as f64;
            latency += r.ops.mean_detection_latency();
            exposure += r.ops.exposure();
        }
        let n = seeds.len() as f64;
        println!(
            "{:<28} {:>9.1} {:>9.1} {:>10.1} {:>12.1} {:>9.2}%",
            name,
            rejected / n,
            shipped / n,
            incidents / n,
            latency / n,
            100.0 * exposure / n
        );
    }
}

fn bench_pipeline(c: &mut Criterion) {
    print_comparison_table();

    let mut group = c.benchmark_group("E10_full_loop");
    group.sample_size(10);
    for (name, cfg) in configs(7) {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| run(cfg, &Telemetry::off()))
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
    targets = bench_pipeline
}
criterion_main!(benches);
