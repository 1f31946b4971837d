//! E19: the live telemetry plane — overhead, tail-sampled journal
//! size, and streaming alert latency.
//!
//! One invocation runs three claims over the E12 fleet workload (with
//! the TEARS telemetry firehose armed) and one server overload:
//!
//! * **overhead** — the always-on plane (journal at the `Info`
//!   operational floor, incident tracing, live SLO evaluation) vs the
//!   E12 baseline (metrics recorder only, no journal), paired
//!   per-round wall clock gated on the median round ratio at
//!   [`PLANE_OVERHEAD_BUDGET_PCT`]. The `Debug` forensic floor — which
//!   accepts the whole per-host signal firehose — is measured
//!   alongside, ungated: that cost is what adaptive sampling's disk
//!   savings pay for, and it is only ever paid while recording;
//! * **sampling** — the identical firehose-armed run recorded twice
//!   through the columnar [`DirWriter`], bare vs wrapped in a
//!   [`SamplingSink`]: on-disk bytes must shrink by at least the
//!   scale's `size_ratio_floor` (≥10× at CI scale) while **100%** of
//!   the live run's incidents still resolve to their
//!   `requirement.ingested` root inside the sampled cut;
//! * **alerting** — a two-tenant [`vdo_server::Server`] where periodic
//!   bursts overload one tenant's admission queue: the burn onset is
//!   the first `server.reject` journal event, and the per-tenant SLO
//!   evaluator must land its first alert on the SOC bus within
//!   [`ALERT_LATENCY_BUDGET_TICKS`] of it. Every fired alert is
//!   appended to the scale's `alert_log` (the CI artifact);
//! * the `smoke` subsection ANDs the three [`Budget`] rows into
//!   `within_budget`.
//!
//! [`DirWriter`]: vdo_trace::DirWriter
//! [`SamplingSink`]: vdo_trace::SamplingSink

use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use serde::json::Value;
use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_server::{
    LoadConfig, LoadGen, Server, ServerConfig, ServerMetrics, ServerSloPolicy, ServerTracing,
    TenantConfig,
};
use vdo_soc::{
    RemediationConfig, SecEvent, ShardedBus, SloPolicy, SocConfig, SocEngine, SocMetrics,
    SocTracing,
};
use vdo_stigs::ubuntu;
use vdo_trace::{
    BurnRateRule, DirWriter, Journal, JournalConfig, JournalDir, SamplingPolicy, SamplingSink,
    Severity, SloSignal,
};

use crate::budget::{verdict, Budget};

/// The pinned smoke budget for the always-on plane: enabled vs the
/// E12 metrics-only baseline, median paired per-round ratio, in
/// percent.
pub const PLANE_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// The pinned smoke budget for alert detection latency: ticks from the
/// first rejected request (burn onset) to the first SLO alert on the
/// SOC bus.
pub const ALERT_LATENCY_BUDGET_TICKS: u64 = 25;

/// Knobs that scale E19 between the full experiment, the CI shape, and
/// a fast test shape. All runs keep the same structure — only fleet
/// size, duration, and the sampling floor change (a tiny fleet's base
/// stream is too large a fraction of the firehose to reach 10×).
#[derive(Debug, Clone)]
pub struct E19Scale {
    /// Fleet size for the overhead and sampling runs.
    pub hosts: usize,
    /// Ticks per SOC run.
    pub duration: u64,
    /// Best-of rounds for the overhead measurement.
    pub rounds: usize,
    /// Ticks per overhead-arm run. Longer than `duration` at the real
    /// scales: each arm must run long against scheduler jitter, since
    /// the 5% budget is a few percent of one arm's wall clock (at 500
    /// ticks an arm ran about 11.5 ms on a 2-vCPU VM, so 5% was 0.6 ms).
    pub overhead_ticks: u64,
    /// Head-sampling rate: keep one telemetry trace in this many.
    pub keep_1_in: u64,
    /// Minimum on-disk size reduction (unsampled / sampled bytes).
    pub size_ratio_floor: f64,
    /// Total requests for the server overload run.
    pub requests: u64,
    /// Where fired alerts are appended, one line each (the CI
    /// artifact); `None` keeps the log in memory only.
    pub alert_log: Option<PathBuf>,
}

impl E19Scale {
    /// The full experiment: the E12 fleet for 300 ticks.
    #[must_use]
    pub fn full() -> Self {
        E19Scale {
            hosts: 64,
            duration: 300,
            rounds: 11,
            overhead_ticks: 2_000,
            keep_1_in: 32,
            size_ratio_floor: 10.0,
            requests: 20_000,
            alert_log: Some(PathBuf::from("target/e19_alerts.log")),
        }
    }

    /// The CI shape: the E12 workload exactly (64 hosts, 200 ticks).
    #[must_use]
    pub fn ci() -> Self {
        E19Scale {
            duration: 200,
            requests: 10_000,
            ..E19Scale::full()
        }
    }

    /// A reduced shape for tests: identical structure, relaxed
    /// sampling floor (at 12 hosts the incident stream dominates).
    #[must_use]
    pub fn tiny() -> Self {
        E19Scale {
            hosts: 12,
            duration: 100,
            rounds: 2,
            overhead_ticks: 100,
            keep_1_in: 8,
            size_ratio_floor: 2.0,
            requests: 2_000,
            alert_log: None,
        }
    }

    fn soc_config(&self) -> SocConfig {
        SocConfig {
            duration: self.duration,
            drift_rate: 0.02,
            workers: 4,
            shards: 16,
            seed: 11,
            tears_assertion: Some(
                r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
            ),
            // Retries off: a quarter of remediation attempts dead-letter
            // outright, so the fleet-side burn-rate rule has a real burn
            // to catch (with backoff retries the dead-letter ratio is
            // fault_rate^4 — far below any sane objective).
            remediation: RemediationConfig {
                max_retries: 0,
                fault_rate: 0.25,
                ..RemediationConfig::default()
            },
            ..SocConfig::default()
        }
    }
}

/// Burn-rate rules over the SOC engine's live signals.
fn soc_rules() -> Vec<BurnRateRule> {
    vec![
        BurnRateRule {
            name: "remediation-failures".into(),
            signal: SloSignal::CounterRatio {
                bad: "soc.dead_letters".into(),
                total: "soc.remediations".into(),
            },
            objective: 0.05,
            long_window: 20,
            short_window: 5,
            factor: 2.0,
        },
        BurnRateRule {
            name: "slow-detection".into(),
            signal: SloSignal::HistogramAbove {
                histogram: "soc.detection_latency".into(),
                threshold: 3,
            },
            objective: 0.1,
            long_window: 20,
            short_window: 5,
            factor: 2.0,
        },
    ]
}

/// The server-side admission SLO: rejected/admitted burn rate.
fn admission_rule() -> BurnRateRule {
    BurnRateRule {
        name: "admission".into(),
        signal: SloSignal::CounterRatio {
            bad: "server.rejected".into(),
            total: "server.admitted".into(),
        },
        objective: 0.1,
        long_window: 10,
        short_window: 3,
        factor: 2.0,
    }
}

/// The median of sorted `values`: the mean of the middle two for an
/// even count, NaN for none.
fn median(values: &[f64]) -> f64 {
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `[lower quartile, median, upper quartile]` of `values`: the medians
/// of the halves below and above the median (Tukey's hinges).
fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [
        median(&values[..n / 2]),
        median(&values),
        median(&values[n.div_ceil(2)..]),
    ]
}

fn fleet_of(catalog: &vdo_core::Catalog<UnixHost>, hosts: usize) -> Vec<UnixHost> {
    let planner = RemediationPlanner::default();
    (0..hosts)
        .map(|_| {
            let mut h = UnixHost::baseline_ubuntu_1804();
            planner.run(catalog, &mut h);
            h
        })
        .collect()
}

/// Runs the E19 telemetry-plane experiment and returns the section
/// JSON with its three budget rows (plane overhead, sampled size
/// ratio, alert latency), which also land in `smoke.within_budget`.
/// Structural invariants (identical incident logs across arms, 100%
/// root resolution, every alert reaching the bus) are asserted
/// in-function.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn section(scale: &E19Scale) -> (Value, Vec<Budget>) {
    crate::say!("\n== E19: live telemetry plane (overhead / sampling / alert latency) ==");
    let catalog = ubuntu::catalog();
    let config = scale.soc_config();
    let overhead_config = SocConfig {
        duration: scale.overhead_ticks,
        ..config.clone()
    };

    // -- Overhead: the always-on plane vs the E12 baseline. ------------
    // Three arms, all with the E12 metrics recorder on: `baseline`
    // (metrics only — E12's enabled configuration), `plane` (plus an
    // Info-floor journal, incident tracing, and live SLO evaluation),
    // `forensic` (plus the Debug floor accepting the signal firehose).
    // Arms run adjacent within each round and the gate takes the
    // *median per-round overhead ratio*: a noisy epoch slows paired
    // arms together and cancels, where best-of-N wall clocks drift
    // apart on a loaded machine and turn a ≤5% claim into a coin flip.
    // The minimum ratio would let one round that a contended machine
    // slowed only in its baseline arm pass the gate on noise.
    let mut best = [f64::INFINITY; 3];
    let mut plane_ratios = Vec::with_capacity(scale.rounds);
    let mut forensic_ratios = Vec::with_capacity(scale.rounds);
    let mut plane_alerts = 0u64;
    for _ in 0..scale.rounds {
        let mut round = [0.0f64; 3];
        for slot in 0..3usize {
            let tracing = match slot {
                2 => SocTracing::disabled(),
                _ => {
                    let journal = Journal::with_config(JournalConfig {
                        shards: 4,
                        capacity_per_shard: 8_192,
                        min_severity: if slot == 1 {
                            Severity::Debug
                        } else {
                            Severity::Info
                        },
                    });
                    let mut t = SocTracing::new(journal, 11);
                    t.slo = Some(SloPolicy {
                        rules: soc_rules(),
                        period: 1,
                    });
                    t
                }
            };
            let metrics = SocMetrics::new();
            let mut fleet = fleet_of(&catalog, scale.hosts);
            let engine = SocEngine::new(&catalog, overhead_config.clone()).expect("valid config");
            let t0 = Instant::now();
            let report = engine.run_traced(&mut fleet, &metrics, &tracing);
            let dt = t0.elapsed().as_secs_f64();
            round[slot] = dt;
            best[slot] = best[slot].min(dt);
            if slot == 0 {
                plane_alerts = report.slo_alerts.len() as u64;
            }
            assert!(
                !report.incidents.is_empty(),
                "the workload must raise incidents"
            );
        }
        plane_ratios.push(100.0 * (round[0] - round[2]) / round[2]);
        forensic_ratios.push(100.0 * (round[1] - round[2]) / round[2]);
    }
    let [plane_q1, plane_overhead_pct, plane_q3] = quartiles(plane_ratios);
    let [forensic_q1, forensic_overhead_pct, forensic_q3] = quartiles(forensic_ratios);
    crate::say!("{:>10} {:>14}", "PLANE", "BEST WALL");
    crate::say!("{:>10} {:>13.2}ms", "enabled", best[0] * 1e3);
    crate::say!("{:>10} {:>13.2}ms", "forensic", best[1] * 1e3);
    crate::say!("{:>10} {:>13.2}ms", "baseline", best[2] * 1e3);
    crate::say!(
        "   always-on plane overhead: {plane_overhead_pct:+.2}% (budget {PLANE_OVERHEAD_BUDGET_PCT}%; \
         quartiles {plane_q1:+.2}% / {plane_q3:+.2}%), forensic Debug floor: {forensic_overhead_pct:+.2}% \
         (ungated; quartiles {forensic_q1:+.2}% / {forensic_q3:+.2}%); median paired ratio over {} rounds \
         of {} ticks",
        scale.rounds,
        scale.overhead_ticks
    );
    let overhead = Budget::at_most(
        "e19_telemetry_plane.overhead.plane_overhead_pct",
        plane_overhead_pct,
        PLANE_OVERHEAD_BUDGET_PCT,
    );

    // -- Sampling: bare DirWriter vs SamplingSink on the same run. -----
    let base = std::env::temp_dir().join(format!("vdo-e19-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let full_dir = base.join("full");
    let samp_dir = base.join("sampled");
    std::fs::create_dir_all(&full_dir).expect("temp dir");
    std::fs::create_dir_all(&samp_dir).expect("temp dir");
    let capture = JournalConfig {
        shards: 1,
        capacity_per_shard: 1,
        min_severity: Severity::Debug,
    };
    let record = |sink: Box<dyn vdo_trace::JournalSink>| {
        let journal = Journal::with_sink(capture, sink);
        let mut fleet = fleet_of(&catalog, scale.hosts);
        let engine = SocEngine::new(&catalog, config.clone()).expect("valid config");
        let report = engine.run_traced(
            &mut fleet,
            &SocMetrics::new(),
            &SocTracing::new(journal.clone(), 11),
        );
        journal.sync();
        report
    };
    let full_report = record(Box::new(
        DirWriter::create(&full_dir, "e19 full").expect("sink"),
    ));
    let policy = SamplingPolicy {
        keep_1_in: scale.keep_1_in,
        seed: 0x7e1e,
        ..SamplingPolicy::default()
    };
    let sink = SamplingSink::new(
        DirWriter::create(&samp_dir, "e19 sampled").expect("sink"),
        policy,
    );
    let stats = sink.stats();
    let samp_report = record(Box::new(sink));
    assert_eq!(
        full_report.incidents, samp_report.incidents,
        "sampling must not perturb the run"
    );
    let full_bytes = JournalDir::open(&full_dir)
        .and_then(|d| d.total_bytes())
        .expect("full dir");
    let samp_bytes = JournalDir::open(&samp_dir)
        .and_then(|d| d.total_bytes())
        .expect("sampled dir");
    let ratio = full_bytes as f64 / samp_bytes as f64;
    let sampled_events = JournalDir::open(&samp_dir)
        .expect("sampled dir")
        .events()
        .expect("sampled dir decodes");
    let roots: HashSet<u64> = sampled_events
        .iter()
        .filter(|(_, e)| e.name == "requirement.ingested")
        .filter_map(|(_, e)| e.trace.map(|t| t.trace_id.0))
        .collect();
    let traced: Vec<u64> = samp_report
        .incidents
        .iter()
        .filter_map(|i| i.trace.map(|t| t.trace_id.0))
        .collect();
    assert!(!traced.is_empty(), "workload must raise traced incidents");
    let resolved = traced.iter().filter(|id| roots.contains(id)).count();
    let resolution_pct = 100.0 * resolved as f64 / traced.len() as f64;
    crate::say!(
        "   sampled journal: {full_bytes} -> {samp_bytes} bytes ({ratio:.1}x, floor \
         {:.0}x), {} -> {} events, {} traces promoted",
        scale.size_ratio_floor,
        stats.seen(),
        stats.kept(),
        stats.promoted()
    );
    crate::say!(
        "   incident root resolution in the sampled cut: {resolved}/{} ({resolution_pct:.0}%)",
        traced.len()
    );
    assert!(
        (resolution_pct - 100.0).abs() < f64::EPSILON,
        "tail sampling must keep every incident chain: {resolved}/{}",
        traced.len()
    );
    let sampling = Budget::at_least(
        "e19_telemetry_plane.sampling.size_ratio",
        ratio,
        scale.size_ratio_floor,
    );
    let _ = std::fs::remove_dir_all(&base);

    // -- Alerting: burst-overloaded tenant, bus latency. ---------------
    let mut server = Server::new(ServerConfig {
        capacity_per_round: 8,
        workers: 2,
        ..ServerConfig::default()
    });
    server.register_tenant(&TenantConfig::new("burning").with_queue_capacity(8));
    server.register_tenant(&TenantConfig::new("healthy").with_queue_capacity(4_096));
    let mut gen = LoadGen::new(LoadConfig {
        total_requests: scale.requests,
        base_rate: 6,
        burst_period: 20,
        burst_size: 200,
        ..LoadConfig::even(2, scale.requests, 6, 19)
    });
    let bus = std::sync::Arc::new(ShardedBus::new(4, 8_192));
    let journal = Journal::with_config(JournalConfig {
        shards: 4,
        capacity_per_shard: 16_384,
        min_severity: Severity::Info,
    });
    let tracing = ServerTracing::new(journal.clone(), 77).with_slo(ServerSloPolicy {
        rules: vec![admission_rule()],
        period: 1,
        bus: Some(bus.clone()),
    });
    let metrics = ServerMetrics::new();
    let report = server.run_load(&mut gen, &metrics, &tracing);
    let snap = journal.snapshot();
    let onset = snap
        .events_named("server.reject")
        .iter()
        .map(|e| e.at)
        .min()
        .expect("bursts must overload the burning tenant");
    let first_alert = report
        .slo_alerts
        .iter()
        .map(|(_, a)| a.at)
        .min()
        .expect("the burn must alert");
    let alert_latency = first_alert.saturating_sub(onset);
    let mut on_bus = 0u64;
    for shard in 0..bus.shard_count() {
        while let Some(env) = bus.pop(shard) {
            if let SecEvent::SloAlert { .. } = env.event {
                on_bus += 1;
            }
        }
    }
    assert_eq!(
        on_bus,
        report.slo_alerts.len() as u64,
        "every fired alert must reach the SOC bus"
    );
    let exemplar_buckets = metrics
        .queue_latency
        .snapshot()
        .exemplars
        .iter()
        .flatten()
        .count();
    assert!(
        exemplar_buckets > 0,
        "traced responses must leave latency exemplars"
    );
    if let Some(path) = &scale.alert_log {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let mut f = std::fs::File::create(path).expect("alert log");
        let tenant_names = ["burning", "healthy"];
        for (tenant, a) in &report.slo_alerts {
            writeln!(
                f,
                "tick={} tenant={} rule={} long_burn={:.2} short_burn={:.2} trace={:#x}",
                a.at, tenant_names[*tenant], a.rule, a.long_burn, a.short_burn, a.trace.trace_id.0
            )
            .expect("alert log line");
        }
        crate::say!(
            "   alert log: {} line(s) -> {}",
            report.slo_alerts.len(),
            path.display()
        );
    }
    crate::say!(
        "   burn onset tick {onset}, first alert tick {first_alert}: latency {alert_latency} \
         tick(s) (budget {ALERT_LATENCY_BUDGET_TICKS}); {} alert(s) on the bus, \
         {exemplar_buckets} exemplar bucket(s)",
        on_bus
    );
    let alerting = Budget::at_most(
        "e19_telemetry_plane.alerting.alert_latency_ticks",
        alert_latency as f64,
        ALERT_LATENCY_BUDGET_TICKS as f64,
    );

    let (overhead_ok, sampling_ok, alerting_ok) = (overhead.ok, sampling.ok, alerting.ok);
    let budgets = vec![overhead, sampling, alerting];
    let within_budget = verdict(&budgets).is_ok();
    crate::say!(
        "   smoke: plane {} | sampling {} | alerting {} -> within_budget={within_budget}",
        if overhead_ok { "ok" } else { "OVER" },
        if sampling_ok { "ok" } else { "UNDER" },
        if alerting_ok { "ok" } else { "LATE" },
    );

    let json = serde::json::object([
        (
            "overhead",
            serde::json::object([
                ("plane_best_secs", Value::Float(best[0])),
                ("forensic_best_secs", Value::Float(best[1])),
                ("baseline_best_secs", Value::Float(best[2])),
                ("plane_overhead_pct", Value::Float(plane_overhead_pct)),
                ("plane_overhead_q1_pct", Value::Float(plane_q1)),
                ("plane_overhead_q3_pct", Value::Float(plane_q3)),
                ("forensic_overhead_pct", Value::Float(forensic_overhead_pct)),
                ("budget_pct", Value::Float(PLANE_OVERHEAD_BUDGET_PCT)),
                ("rounds", Value::UInt(scale.rounds as u64)),
                ("soc_slo_alerts", Value::UInt(plane_alerts)),
            ]),
        ),
        (
            "sampling",
            serde::json::object([
                ("keep_1_in", Value::UInt(scale.keep_1_in)),
                ("unsampled_bytes", Value::UInt(full_bytes)),
                ("sampled_bytes", Value::UInt(samp_bytes)),
                ("size_ratio", Value::Float(ratio)),
                ("size_ratio_floor", Value::Float(scale.size_ratio_floor)),
                ("events_seen", Value::UInt(stats.seen())),
                ("events_kept", Value::UInt(stats.kept())),
                ("traces_promoted", Value::UInt(stats.promoted())),
                ("incidents_traced", Value::UInt(traced.len() as u64)),
                ("root_resolution_pct", Value::Float(resolution_pct)),
            ]),
        ),
        (
            "alerting",
            serde::json::object([
                ("burn_onset_tick", Value::UInt(onset)),
                ("first_alert_tick", Value::UInt(first_alert)),
                ("alert_latency_ticks", Value::UInt(alert_latency)),
                (
                    "latency_budget_ticks",
                    Value::UInt(ALERT_LATENCY_BUDGET_TICKS),
                ),
                ("alerts_fired", Value::UInt(report.slo_alerts.len() as u64)),
                ("alerts_on_bus", Value::UInt(on_bus)),
                ("exemplar_buckets", Value::UInt(exemplar_buckets as u64)),
            ]),
        ),
        (
            "smoke",
            serde::json::object([
                ("overhead_ok", Value::Bool(overhead_ok)),
                ("sampling_ok", Value::Bool(sampling_ok)),
                ("alerting_ok", Value::Bool(alerting_ok)),
                ("within_budget", Value::Bool(within_budget)),
            ]),
        ),
    ]);
    (json, budgets)
}
