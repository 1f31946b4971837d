//! E1 / E2 / A1 — NALABS: detection quality, throughput, and the
//! dictionary-size ablation.
//!
//! Regenerates:
//! * E1 (precision/recall vs planted smell rate) — printed once at bench
//!   start, since quality is deterministic;
//! * E2 (analysis throughput vs corpus size) — a Criterion group;
//! * A1 (recall vs dictionary fraction) — printed table, plus a
//!   Criterion group timing analysis at each fraction (the shrunk
//!   analyzers are built, and their dictionaries compiled, outside the
//!   timed loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use vdo_bench::workloads;
use vdo_corpus::requirements::{generate, CorpusConfig};
use vdo_nalabs::Analyzer;

fn print_e1_table() {
    println!("\n[E1] NALABS detection quality vs planted smell rate (n = 1000)");
    println!(
        "{:>10} {:>10} {:>8} {:>6}",
        "RATE", "PRECISION", "RECALL", "F1"
    );
    for rate in [0.05, 0.1, 0.2, 0.3] {
        let corpus = generate(&CorpusConfig {
            size: 1_000,
            smell_rate: rate,
            seed: 7,
        });
        let report = Analyzer::with_default_metrics().analyze_corpus(&corpus.documents);
        let pr = report.score_against(&|id| corpus.is_smelly(id));
        println!(
            "{:>10.2} {:>10.3} {:>8.3} {:>6.3}",
            rate,
            pr.precision(),
            pr.recall(),
            pr.f1()
        );
    }
}

fn print_a1_table() {
    println!("\n[A1] ablation: recall vs dictionary fraction (n = 1000, rate 0.25)");
    println!("  (imperatives metric excluded: the ablation isolates dictionary smells)");
    println!("{:>10} {:>8} {:>10}", "FRACTION", "RECALL", "PRECISION");
    let corpus = workloads::corpus(1_000);
    for fraction in [1.0, 0.75, 0.5, 0.25, 0.1] {
        let analyzer = workloads::shrunk_analyzer(fraction);
        let report = analyzer.analyze_corpus(&corpus.documents);
        let pr = report.score_against(&|id| corpus.is_smelly(id));
        println!(
            "{:>10.2} {:>8.3} {:>10.3}",
            fraction,
            pr.recall(),
            pr.precision()
        );
    }
}

fn bench_throughput(c: &mut Criterion) {
    print_e1_table();
    print_a1_table();

    let mut group = c.benchmark_group("E2_nalabs_throughput");
    for size in [100usize, 1_000, 10_000] {
        let corpus = workloads::corpus(size);
        let analyzer = Analyzer::with_default_metrics();
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &corpus, |b, corpus| {
            b.iter(|| analyzer.analyze_corpus(&corpus.documents))
        });
    }
    group.finish();

    let corpus = workloads::corpus(1_000);
    let mut group = c.benchmark_group("A1_nalabs_dictionary_fraction");
    group.throughput(Throughput::Elements(corpus.documents.len() as u64));
    for fraction in [1.0, 0.5, 0.1] {
        let analyzer = workloads::shrunk_analyzer(fraction);
        group.bench_with_input(
            BenchmarkId::from_parameter(fraction),
            &corpus,
            |b, corpus| b.iter(|| analyzer.analyze_corpus(&corpus.documents)),
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
    targets = bench_throughput
}
criterion_main!(benches);
