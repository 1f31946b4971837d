//! E15: the multi-tenant service front end under open-loop load.
//!
//! One invocation drives millions of synthetic requests from the
//! seeded [`LoadGen`] through admission control, the weighted DRR
//! scheduler and the worker pool, and reports:
//!
//! * end-to-end latency (p50/p99/p999, measured in dispatch rounds by
//!   the deterministic `queue_latency` histogram) plus wall-clock
//!   per-request service time on the sub-millisecond `nanos` preset;
//! * throughput and admission-rejection counts, from [`vdo_obs`]
//!   counters, with every response resolvable to its tenant and
//!   originating request through the [`vdo_trace`] journal;
//! * scaling sweeps over tenant count and queue depth (the latter
//!   deliberately overloaded so backpressure is visible);
//! * the determinism check: per-tenant verdict logs byte-identical
//!   across worker counts for equal seeds;
//! * worker scaling: throughput of the commit-heavy mix at 1 and 2
//!   workers and their ratio (timings only, no budget: a shared VM
//!   gives no stable scaling bound).
//!
//! The `smoke` subsection is the CI latency gate: a small stable-load
//! configuration whose deterministic p99 must stay within
//! [`SMOKE_BUDGET_TICKS`] dispatch rounds (one [`Budget`] row).

use std::time::Instant;

use serde::json::Value;
use serde::Serialize;
use vdo_server::{
    LoadConfig, LoadGen, MixWeights, Server, ServerConfig, ServerMetrics, ServerTracing,
    ServiceReport, TenantConfig,
};

use crate::budget::{verdict, Budget};

/// The documented latency budget for the smoke configuration: p99
/// end-to-end latency, in dispatch rounds, that CI asserts against.
/// The smoke load runs at 80% of round capacity with periodic 2×
/// bursts, so the queue must drain each backlog within a handful of
/// rounds; 32 leaves room for scheduler-unfriendly mixes without ever
/// tolerating an unstable queue.
pub const SMOKE_BUDGET_TICKS: u64 = 32;

/// The commit-heavy request mix (20/70/9/1) the worker-scaling rows
/// run, the perf ledger's `service_commits` mix.
const COMMIT_HEAVY: MixWeights = MixWeights {
    submit: 20,
    push: 70,
    query: 9,
    ops: 1,
};

/// Alternating rounds of the worker-scaling comparison; each worker
/// count reports its best round.
const SCALING_ROUNDS: usize = 3;

/// Knobs that scale E15 between the full experiment and a fast CI or
/// test shape. All runs keep the same structure — only request counts
/// change.
#[derive(Debug, Clone)]
pub struct E15Scale {
    /// Requests in the headline 8-tenant run.
    pub main_total: u64,
    /// Requests per configuration in the tenant sweep.
    pub sweep_total: u64,
    /// Requests per configuration in the queue-depth (overload) sweep.
    pub overload_total: u64,
    /// Requests per worker count in the determinism check.
    pub determinism_total: u64,
    /// Requests per run of the worker-scaling comparison.
    pub scaling_total: u64,
    /// Requests in the latency-budget smoke run.
    pub smoke_total: u64,
}

impl E15Scale {
    /// The full experiment: one million requests in the headline run.
    #[must_use]
    pub fn full() -> Self {
        E15Scale {
            main_total: 1_000_000,
            sweep_total: 100_000,
            overload_total: 50_000,
            determinism_total: 20_000,
            scaling_total: 120_000,
            smoke_total: 50_000,
        }
    }

    /// A reduced shape for tests: the same sections at a fraction of
    /// the request counts. The overload sweep keeps enough rounds that
    /// the 2× surplus still overflows the deepest queue configuration
    /// (8 × 1024 slots needs >8192 queued beyond service capacity).
    #[must_use]
    pub fn tiny() -> Self {
        E15Scale {
            main_total: 2_000,
            sweep_total: 500,
            overload_total: 25_000,
            determinism_total: 500,
            scaling_total: 500,
            smoke_total: 1_000,
        }
    }
}

/// Registers `n` tenants with mildly heterogeneous weights and seeds.
fn tenant_fleet(server: &mut Server, n: usize, queue_capacity: usize, seed: u64) -> Vec<u64> {
    let mut weights = Vec::with_capacity(n);
    for t in 0..n {
        let weight = 1 + (t as u64 % 3);
        server.register_tenant(
            &TenantConfig::new(format!("tenant-{t}"))
                .with_seed(seed.wrapping_add(t as u64))
                .with_weight(weight)
                .with_queue_capacity(queue_capacity)
                .with_drift_rate(0.2),
        );
        weights.push(weight);
    }
    weights
}

/// One measured service run; returns the report, its metrics snapshot
/// source, and the wall time.
struct Measured {
    report: ServiceReport,
    metrics: ServerMetrics,
    journal_events: u64,
    wall_secs: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_service(
    tenants: usize,
    total: u64,
    base_rate: u64,
    capacity_per_round: usize,
    queue_capacity: usize,
    workers: usize,
    burst: (u64, u64),
    seed: u64,
    traced: bool,
    mix: MixWeights,
) -> Measured {
    let mut server = Server::new(ServerConfig {
        capacity_per_round,
        quantum: 4,
        workers,
        retain_responses: false,
    });
    let weights = tenant_fleet(&mut server, tenants, queue_capacity, seed);
    let mut gen = LoadGen::new(LoadConfig {
        total_requests: total,
        base_rate,
        burst_period: burst.0,
        burst_size: burst.1,
        tenant_weights: weights,
        mix,
        seed,
    });
    let metrics = ServerMetrics::new();
    let tracing = if traced {
        ServerTracing::new(vdo_trace::Journal::new(), seed)
    } else {
        ServerTracing::disabled()
    };
    let t0 = Instant::now();
    let report = server.run_load(&mut gen, &metrics, &tracing);
    let wall_secs = t0.elapsed().as_secs_f64();
    let journal_events = if traced {
        let snap = tracing.journal.snapshot();
        (snap.events.len() as u64) + snap.dropped()
    } else {
        0
    };
    Measured {
        report,
        metrics,
        journal_events,
        wall_secs,
    }
}

fn quantile_ticks(m: &Measured, q: f64) -> f64 {
    m.metrics
        .queue_latency
        .snapshot()
        .quantile(q)
        .unwrap_or(0.0)
}

/// Runs the full E15 experiment at `scale`, printing the human tables
/// and returning the JSON section `exp_report --json` embeds with the
/// smoke run's budget row.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn section(scale: &E15Scale) -> (Value, Vec<Budget>) {
    // -- Headline run: 8 tenants, open-loop with bursts, traced. --------
    crate::say!(
        "\n== E15: multi-tenant service front end ({} requests, 8 tenants) ==",
        scale.main_total
    );
    let main = run_service(
        8,
        scale.main_total,
        2_000,
        2_400,
        1_024,
        4,
        (50, 4_000),
        42,
        true,
        MixWeights::default(),
    );
    let snap = main.metrics.snapshot(main.wall_secs);
    let svc = &snap.service_nanos;
    crate::say!(
        "   admitted {} / rejected {} / completed {} in {:.2}s ({:.0} req/s)",
        snap.admitted,
        snap.rejected,
        snap.completed,
        main.wall_secs,
        snap.requests_per_sec
    );
    crate::say!(
        "   latency (rounds): p50 {:.1}  p99 {:.1}  p999 {:.1}  max {}",
        quantile_ticks(&main, 0.50),
        quantile_ticks(&main, 0.99),
        quantile_ticks(&main, 0.999),
        snap.queue_latency.max
    );
    crate::say!(
        "   service time:     p50 {:.1}us p99 {:.1}us (wall-clock, run-local)",
        svc.quantile(0.50).unwrap_or(0.0) / 1e3,
        svc.quantile(0.99).unwrap_or(0.0) / 1e3
    );
    crate::say!(
        "   journal: {} events (admit/response spans resolve each response to its request)",
        main.journal_events
    );
    assert_eq!(
        snap.admitted + snap.rejected,
        scale.main_total,
        "every generated request is admitted or rejected"
    );
    assert_eq!(
        snap.completed, snap.admitted,
        "every admitted request is served"
    );
    let main_json = serde::json::object([
        ("tenants", Value::UInt(8)),
        ("total_requests", Value::UInt(scale.main_total)),
        ("metrics", snap.to_value()),
        ("p50_ticks", Value::Float(quantile_ticks(&main, 0.50))),
        ("p99_ticks", Value::Float(quantile_ticks(&main, 0.99))),
        ("p999_ticks", Value::Float(quantile_ticks(&main, 0.999))),
        ("journal_events", Value::UInt(main.journal_events)),
        ("wall_secs", Value::Float(main.wall_secs)),
    ]);

    // -- Tenant sweep: same aggregate load spread over more tenants. ----
    crate::say!("\n   tenant sweep ({} requests each):", scale.sweep_total);
    crate::say!(
        "{:>10} {:>10} {:>12} {:>10} {:>10}",
        "TENANTS",
        "COMPLETED",
        "THROUGHPUT",
        "P99",
        "REJECTED"
    );
    let mut tenant_rows = Vec::new();
    for tenants in [2usize, 4, 8, 16] {
        // Queues hold a full round of arrivals even when few tenants
        // split the rate, so this sweep isolates throughput from
        // shedding (the queue-depth sweep below covers overload).
        let m = run_service(
            tenants,
            scale.sweep_total,
            1_000,
            1_200,
            1_024,
            4,
            (0, 0),
            7,
            false,
            MixWeights::default(),
        );
        let s = m.metrics.snapshot(m.wall_secs);
        crate::say!(
            "{tenants:>10} {:>10} {:>10.0}/s {:>10.1} {:>10}",
            s.completed,
            s.requests_per_sec,
            quantile_ticks(&m, 0.99),
            s.rejected
        );
        tenant_rows.push(serde::json::object([
            ("tenants", Value::UInt(tenants as u64)),
            ("completed", Value::UInt(s.completed)),
            ("rejected", Value::UInt(s.rejected)),
            ("throughput_rps", Value::Float(s.requests_per_sec)),
            ("p99_ticks", Value::Float(quantile_ticks(&m, 0.99))),
        ]));
    }

    // -- Queue-depth sweep: deliberately overloaded (arrival rate 2× ----
    // round capacity), so shallow queues shed load and deep queues
    // trade rejections for latency.
    crate::say!(
        "\n   queue-depth sweep under 2x overload ({} requests each):",
        scale.overload_total
    );
    crate::say!(
        "{:>10} {:>10} {:>10} {:>10} {:>12}",
        "CAPACITY",
        "ADMITTED",
        "REJECTED",
        "P99",
        "MAX DEPTH"
    );
    let mut depth_rows = Vec::new();
    for queue_capacity in [64usize, 256, 1_024] {
        let m = run_service(
            8,
            scale.overload_total,
            1_000,
            500,
            queue_capacity,
            4,
            (0, 0),
            13,
            false,
            MixWeights::default(),
        );
        let s = m.metrics.snapshot(m.wall_secs);
        crate::say!(
            "{queue_capacity:>10} {:>10} {:>10} {:>10.1} {:>12}",
            s.admitted,
            s.rejected,
            quantile_ticks(&m, 0.99),
            s.max_queue_depth
        );
        assert!(
            s.rejected > 0,
            "a 2x-overloaded run must exercise admission control"
        );
        depth_rows.push(serde::json::object([
            ("queue_capacity", Value::UInt(queue_capacity as u64)),
            ("admitted", Value::UInt(s.admitted)),
            ("rejected", Value::UInt(s.rejected)),
            ("p99_ticks", Value::Float(quantile_ticks(&m, 0.99))),
            ("max_queue_depth", Value::UInt(s.max_queue_depth)),
        ]));
    }

    // -- Determinism: verdict logs byte-identical across workers. -------
    crate::say!(
        "\n   determinism ({} requests, 8 tenants, equal seeds):",
        scale.determinism_total
    );
    crate::say!(
        "{:>10} {:>14} {:>10}",
        "WORKERS",
        "VERDICT BYTES",
        "IDENTICAL"
    );
    let mut reference: Option<Vec<String>> = None;
    let mut determinism_rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let m = run_service(
            8,
            scale.determinism_total,
            500,
            600,
            256,
            workers,
            (25, 800),
            99,
            false,
            MixWeights::default(),
        );
        let bytes: usize = m.report.verdict_logs.iter().map(String::len).sum();
        let identical = match &reference {
            None => {
                reference = Some(m.report.verdict_logs.clone());
                "baseline"
            }
            Some(expected) if *expected == m.report.verdict_logs => "yes",
            Some(_) => "NO",
        };
        assert_ne!(
            identical, "NO",
            "E15 regression: verdict logs diverged at {workers} workers"
        );
        crate::say!("{workers:>10} {bytes:>14} {identical:>10}");
        determinism_rows.push(serde::json::object([
            ("workers", Value::UInt(workers as u64)),
            ("verdict_bytes", Value::UInt(bytes as u64)),
            ("identical", Value::String(identical.to_string())),
        ]));
    }

    // -- Worker scaling: the commit-heavy mix at 1 and 2 workers. -------
    crate::say!(
        "\n   worker scaling ({} requests, 8 tenants, mix 20/70/9/1, best of {SCALING_ROUNDS}):",
        scale.scaling_total
    );
    crate::say!("{:>10} {:>12} {:>10}", "WORKERS", "THROUGHPUT", "WALL");
    let mut best = [f64::INFINITY; 2];
    let mut completed = 0;
    for _ in 0..SCALING_ROUNDS {
        let mut logs = Vec::new();
        for (workers, best) in [1usize, 2].into_iter().zip(&mut best) {
            let m = run_service(
                8,
                scale.scaling_total,
                1_000,
                1_200,
                4_096,
                workers,
                (50, 2_000),
                11,
                false,
                COMMIT_HEAVY,
            );
            *best = best.min(m.wall_secs);
            completed = m.report.completed();
            logs.push(m.report.verdict_logs);
        }
        assert_eq!(
            logs[0], logs[1],
            "E15 regression: worker scaling changed verdicts"
        );
    }
    let mut scaling_rows = Vec::new();
    for (workers, wall) in [1u64, 2].into_iter().zip(best) {
        let rps = completed as f64 / wall;
        crate::say!("{workers:>10} {rps:>10.0}/s {wall:>9.3}s");
        scaling_rows.push(serde::json::object([
            ("workers", Value::UInt(workers)),
            ("throughput_rps", Value::Float(rps)),
            ("wall_secs", Value::Float(wall)),
        ]));
    }
    let ratio = best[0] / best[1];
    crate::say!("   2-worker / 1-worker throughput: {ratio:.2}x (timing only, no budget)");
    let scaling_json = serde::json::object([
        ("mix", Value::String("20/70/9/1".to_string())),
        ("total_requests", Value::UInt(scale.scaling_total)),
        ("rounds", Value::UInt(SCALING_ROUNDS as u64)),
        ("rows", Value::Array(scaling_rows)),
        ("throughput_ratio", Value::Float(ratio)),
    ]);

    // -- Smoke: the CI latency budget on a stable 8-tenant load. --------
    let smoke = run_service(
        8,
        scale.smoke_total,
        400,
        500,
        2_048,
        4,
        (20, 800),
        3,
        false,
        MixWeights::default(),
    );
    let p99 = quantile_ticks(&smoke, 0.99);
    let budgets = vec![Budget::at_most(
        "e15_server.smoke.p99_ticks",
        p99,
        SMOKE_BUDGET_TICKS as f64,
    )];
    let within = verdict(&budgets).is_ok();
    crate::say!(
        "\n   smoke: p99 {:.1} rounds vs budget {} -> {}",
        p99,
        SMOKE_BUDGET_TICKS,
        if within {
            "within budget"
        } else {
            "OVER BUDGET"
        }
    );
    let smoke_json = serde::json::object([
        ("tenants", Value::UInt(8)),
        ("total_requests", Value::UInt(scale.smoke_total)),
        ("p99_ticks", Value::Float(p99)),
        ("budget_ticks", Value::UInt(SMOKE_BUDGET_TICKS)),
        ("within_budget", Value::Bool(within)),
    ]);

    let json = serde::json::object([
        ("main", main_json),
        ("tenant_sweep", Value::Array(tenant_rows)),
        ("queue_depth_sweep", Value::Array(depth_rows)),
        ("determinism", Value::Array(determinism_rows)),
        ("worker_scaling", scaling_json),
        ("smoke", smoke_json),
    ]);
    (json, budgets)
}
