//! `service_mixed` and `service_commits`: the multi-tenant server
//! driving every tenant's whole loop (ingest, gate, deploy, drift,
//! detect, remediate, query) from an open-loop schedule.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Barrier, Mutex};

use vdo_core::{Catalog, Severity};
use vdo_host::UnixHost;
use vdo_pipeline::{
    AnalysisGate, Commit, ComplianceGate, Gate, GateContext, RequirementsGate, TestGate,
};
use vdo_server::{
    Envelope, LoadConfig, LoadGen, MixWeights, Outcome, Request, Server, ServerConfig,
    ServerMetrics, ServerTracing, ServiceReport, Tenant, TenantConfig,
};
use vdo_stigs::ubuntu;
use vdo_trace::Journal;

use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Rep, Traced, WORKERS};

const TENANTS: usize = 8;

/// Span names of the four gates, in the order a tenant evaluates them.
const GATES: [&str; 4] = [
    "pipeline.gate.requirements",
    "pipeline.gate.compliance",
    "pipeline.gate.tests",
    "pipeline.gate.analysis",
];

/// Span names of the four request kinds as a tenant handles them.
const KINDS: [&str; 4] = ["tenant.submit", "tenant.push", "tenant.query", "tenant.ops"];

/// One service workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Service {
    /// Requests the open-loop schedule generates.
    pub requests: u64,
    /// Request-kind mix.
    pub mix: MixWeights,
}

impl Service {
    fn tenant_configs(seed: u64) -> Vec<TenantConfig> {
        (0..TENANTS as u64)
            .map(|t| {
                TenantConfig::new(format!("tenant-{t}"))
                    .with_weight(1 + t % 3)
                    .with_queue_capacity(4_096)
                    .with_drift_rate(0.2)
                    .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t))
            })
            .collect()
    }

    /// 1,000 arrivals per round plus a 2,000-request burst every 50
    /// rounds, against a capacity of 1,200 per round: bursts queue up
    /// and drain, and no queue ever fills.
    fn load(&self, seed: u64) -> LoadConfig {
        LoadConfig {
            total_requests: self.requests,
            base_rate: 1_000,
            burst_period: 50,
            burst_size: 2_000,
            tenant_weights: (0..TENANTS as u64).map(|t| 1 + t % 3).collect(),
            mix: self.mix,
            seed,
        }
    }

    fn server(seed: u64, retain_responses: bool) -> Server {
        let mut server = Server::new(ServerConfig {
            capacity_per_round: 1_200,
            workers: WORKERS,
            retain_responses,
            ..ServerConfig::default()
        });
        for config in Self::tenant_configs(seed) {
            server.register_tenant(&config);
        }
        server
    }

    /// Times one set-up — provisioning every tenant — and tears it
    /// down again.
    #[must_use]
    pub fn setup_s(seed: u64) -> f64 {
        let start = std::time::Instant::now();
        drop(Self::server(seed, false));
        start.elapsed().as_secs_f64()
    }

    /// One untraced repetition: the end-to-end measurement.
    ///
    /// # Errors
    /// When a correctness check fails.
    pub fn rep(&self, seed: u64, _work: &Path) -> Result<Rep, String> {
        Ok(self.pass(seed, &mut Spans::new(), false)?.0)
    }

    fn pass(
        &self,
        seed: u64,
        spans: &mut Spans,
        retain_responses: bool,
    ) -> Result<(Rep, ServiceReport), String> {
        let mut server = Self::server(seed, retain_responses);
        let mut gen = LoadGen::new(self.load(seed));
        let metrics = ServerMetrics::new();
        let report = spans.scope("server.run_load", |_| {
            server.run_load(&mut gen, &metrics, &ServerTracing::disabled())
        });
        let run_s = spans.secs("server.run_load");
        if gen.remaining() != 0 {
            return Err(format!("{} requests never generated", gen.remaining()));
        }
        if report.admitted() + report.rejected() != self.requests {
            return Err(format!(
                "admitted {} + rejected {} != generated {}",
                report.admitted(),
                report.rejected(),
                self.requests
            ));
        }
        if report.completed() != report.admitted() {
            return Err(format!(
                "completed {} != admitted {}",
                report.completed(),
                report.admitted()
            ));
        }
        let outcomes = Values::from([
            ("latency_p50_rounds", report.latency_quantile(0.5)),
            ("latency_p999_rounds", report.latency_quantile(0.999)),
            (
                "failed_share",
                report.rejected() as f64 / self.requests as f64,
            ),
        ]);
        let rep = Rep {
            run_s,
            units: report.completed(),
            digest: stats::fnv1a(report.verdict_logs.join("\n\x1e").as_bytes()),
            failed: report.rejected(),
            outcomes,
        };
        Ok((rep, report))
    }

    /// The traced pass: the server run with responses retained, the
    /// time to drain an identical generator, and two replays of the
    /// admitted arrivals through standalone tenants on the server's
    /// worker count: one timing the tenants, one timing the
    /// benchmark's own gate chain ahead of every push.
    ///
    /// # Errors
    /// When a correctness check fails.
    pub fn traced(&self, seed: u64, _work: &Path) -> Result<Traced, String> {
        let mut spans = Spans::new();
        let (rep, report) = self.pass(seed, &mut spans, true)?;
        let arrivals = spans.scope("loadgen.drain", |_| drain(self.load(seed)));
        if report.rejected() > 0 {
            return Err("the replay needs every arrival admitted".into());
        }
        let rounds = served_rounds(&report, arrivals)?;
        replay_tenants(seed, &report, &rounds, &mut spans)?;
        let rejects = replay_gates(seed, &rounds, &mut spans)?;

        let layers = spans.layers();
        let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
        let service = &report.metrics.service_nanos;
        let serve_s = service.sum as f64 / 1e9;
        let run = layer("server.run_load");
        let push = layer("tenant.push");
        let mut values = rep.outcomes.clone();
        values.extend([
            (
                "server.serve_busy_share",
                serve_s / (run.total_s * WORKERS as f64),
            ),
            (
                "server.service_p50_us",
                service.quantile(0.5).unwrap_or(0.0) / 1e3,
            ),
            (
                "server.service_p99_us",
                service.quantile(0.99).unwrap_or(0.0) / 1e3,
            ),
            ("server.rounds", report.rounds as f64),
            (
                "server.max_queue_depth",
                report.metrics.max_queue_depth as f64,
            ),
            (
                "server.loadgen_share",
                layer("loadgen.drain").total_s / run.total_s,
            ),
            (
                "tenant.coverage",
                KINDS.iter().map(|k| layer(k).total_s).sum::<f64>() / serve_s,
            ),
            (
                "pipeline.artifact_delta.self_s",
                layer("pipeline.artifact_delta").self_s,
            ),
            (
                "pipeline.gate.coverage",
                GATES.iter().map(|g| layer(g).total_s).sum::<f64>() / push.self_s,
            ),
        ]);
        for kind in KINDS {
            let l = layer(kind);
            values.insert(named(format!("{kind}.calls")), l.calls as f64);
            values.insert(named(format!("{kind}.self_s")), l.self_s);
            values.insert(named(format!("{kind}.p99_us")), l.p99_us);
        }
        for (gate, rejected) in GATES.iter().zip(rejects) {
            let l = layer(gate);
            values.insert(named(format!("{gate}.calls")), l.calls as f64);
            values.insert(named(format!("{gate}.self_s")), l.self_s);
            values.insert(named(format!("{gate}.p99_us")), l.p99_us);
            values.insert(
                named(format!("{gate}.reject_ratio")),
                rejected as f64 / l.calls.max(1) as f64,
            );
        }
        Ok(Traced {
            run_s: rep.run_s,
            digest: rep.digest,
            values,
            spans,
        })
    }
}

/// Interns a composed metric name through the metric table.
fn named(name: String) -> &'static str {
    crate::metrics::find(&name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
        .name
}

/// Every arrival the schedule emits, as `(round, tenant, request)`.
fn drain(config: LoadConfig) -> Vec<(u64, usize, Request)> {
    let mut gen = LoadGen::new(config);
    let mut out = Vec::new();
    let mut round = 0;
    while gen.remaining() > 0 {
        out.extend(
            gen.arrivals_for(round)
                .into_iter()
                .map(|(t, r)| (round, t, r)),
        );
        round += 1;
    }
    out
}

/// The admitted arrivals as the server served them: every round it
/// served, in order, with each tenant's batch of that round in seq
/// order (empty when the tenant had none).
type Rounds = Vec<(u64, Vec<Vec<Envelope>>)>;

fn served_rounds(
    report: &ServiceReport,
    arrivals: Vec<(u64, usize, Request)>,
) -> Result<Rounds, String> {
    let mut served: Vec<Vec<u64>> = vec![Vec::new(); TENANTS];
    for r in &report.responses {
        let rounds = &mut served[r.tenant];
        if r.seq != rounds.len() as u64 {
            return Err(format!("tenant {} responses out of seq order", r.tenant));
        }
        rounds.push(r.completed_at);
    }
    let mut next_seq = [0u64; TENANTS];
    let mut rounds: BTreeMap<u64, Vec<Vec<Envelope>>> = BTreeMap::new();
    for (round, tenant, request) in arrivals {
        let seq = next_seq[tenant];
        next_seq[tenant] += 1;
        let now = *served[tenant]
            .get(seq as usize)
            .ok_or_else(|| format!("tenant {tenant} seq {seq} has no response"))?;
        rounds
            .entry(now)
            .or_insert_with(|| vec![Vec::new(); TENANTS])[tenant]
            .push(Envelope {
                tenant,
                seq,
                submitted_at: round,
                request,
                trace: None,
            });
    }
    Ok(rounds.into_iter().collect())
}

/// Replays `rounds` on [`WORKERS`] threads as the server's workers
/// serve them: round by round with a barrier between rounds, and tenant
/// `t`'s batch of the `i`-th round on thread `(t + i) % WORKERS`, so
/// tenant state moves between the cores as it does under the server's
/// work stealing. `serve` handles one batch with its tenant's state.
/// Each thread's spans are grafted under the innermost open span.
fn on_workers<S: Send>(
    spans: &mut Spans,
    rounds: &Rounds,
    states: &[Mutex<S>],
    serve: impl Fn(&mut S, u64, &[Envelope], &mut Spans) -> Result<(), String> + Sync,
) -> Result<(), String> {
    let barrier = Barrier::new(WORKERS);
    let done: Vec<(Result<(), String>, Spans)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|me| {
                let (mut local, serve, barrier) = (spans.fork(), &serve, &barrier);
                scope.spawn(move || {
                    let mut result = Ok(());
                    for (i, (now, batches)) in rounds.iter().enumerate() {
                        for (t, batch) in batches.iter().enumerate() {
                            if (t + i) % WORKERS != me || batch.is_empty() || result.is_err() {
                                continue;
                            }
                            let mut state = states[t].lock().expect("no replay thread panics");
                            // A panic must not stop this thread short of
                            // the barrier, or the other would wait for ever.
                            result = catch_unwind(AssertUnwindSafe(|| {
                                serve(&mut state, *now, batch, &mut local)
                            }))
                            .unwrap_or_else(|_| Err(format!("tenant {t} panicked in replay")));
                        }
                        barrier.wait();
                    }
                    (result, local)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("no replay thread panics"))
            .collect()
    });
    let mut result = Ok(());
    for (r, local) in done {
        spans.graft(local);
        result = result.and(r);
    }
    result
}

/// The span of a tenant call, by request kind.
fn kind_span(request: &Request) -> &'static str {
    match request {
        Request::SubmitRequirement(_) => KINDS[0],
        Request::PushCommit(_) => KINDS[1],
        Request::QueryIncident { .. } => KINDS[2],
        Request::RunOps { .. } => KINDS[3],
    }
}

/// Replays the admitted arrivals through standalone tenants as the
/// server's workers serve them, timing every `Tenant::handle` as the
/// server does, and checks that every verdict log comes out
/// byte-identical to the server's.
fn replay_tenants(
    seed: u64,
    report: &ServiceReport,
    rounds: &Rounds,
    spans: &mut Spans,
) -> Result<(), String> {
    let tenants: Vec<Mutex<Tenant>> = Service::tenant_configs(seed)
        .iter()
        .map(|c| Mutex::new(Tenant::new(c)))
        .collect();
    spans.scope("tenant.replay", |spans| {
        on_workers(spans, rounds, &tenants, |tenant, now, batch, spans| {
            for env in batch {
                spans.scope(kind_span(&env.request), |_| tenant.handle(env, now));
            }
            Ok(())
        })
    })?;
    for (t, (tenant, expected)) in tenants.into_iter().zip(&report.verdict_logs).enumerate() {
        let tenant = tenant.into_inner().expect("no replay thread panics");
        if tenant.verdict_log() != expected {
            return Err(format!(
                "tenant {t}: replayed verdict log differs from the server's"
            ));
        }
    }
    Ok(())
}

/// A tenant with the benchmark's gate chain beside it.
struct Gated {
    tenant: Tenant,
    chain: GateChain,
    rejects: [u64; 4],
}

/// Replays the admitted arrivals again, this time running the
/// benchmark's own gate chain ahead of every push, and checks that the
/// chain gives every push the tenant's verdict. The tenant calls are
/// not timed here: the chain has just warmed the caches they use.
/// Returns the rejections of each gate in the chain.
fn replay_gates(seed: u64, rounds: &Rounds, spans: &mut Spans) -> Result<[u64; 4], String> {
    let stig = ubuntu::catalog();
    let states: Vec<Mutex<Gated>> = Service::tenant_configs(seed)
        .iter()
        .map(|c| {
            Mutex::new(Gated {
                tenant: Tenant::new(c),
                chain: GateChain::new(c),
                rejects: [0; 4],
            })
        })
        .collect();
    spans.scope("pipeline.replay", |spans| {
        on_workers(spans, rounds, &states, |gated, now, batch, spans| {
            let Gated {
                tenant,
                chain,
                rejects,
            } = gated;
            for env in batch {
                let Request::PushCommit(commit) = &env.request else {
                    tenant.handle(env, now);
                    continue;
                };
                let expected = chain.judge(commit, tenant.production(), &stig, rejects, spans);
                let actual = match tenant.handle(env, now) {
                    Outcome::CommitRejected(gate) => Some(gate),
                    _ => None,
                };
                if actual != expected {
                    return Err(format!(
                        "tenant {} seq {}: gate chain says {expected:?}, tenant says {actual:?}",
                        env.tenant, env.seq
                    ));
                }
            }
            Ok(())
        })
    })?;
    let mut total = [0u64; 4];
    for state in states {
        let gated = state.into_inner().expect("no replay thread panics");
        for (sum, r) in total.iter_mut().zip(gated.rejects) {
            *sum += r;
        }
    }
    Ok(total)
}

/// The benchmark's own copy of one tenant's four gates, configured as
/// the tenant configures them, so each gate gets a span of its own.
struct GateChain {
    requirements: RequirementsGate,
    tests: TestGate,
    analysis: AnalysisGate,
    block_at: Severity,
    silent: Journal,
}

impl GateChain {
    fn new(config: &TenantConfig) -> Self {
        GateChain {
            requirements: RequirementsGate::new().with_tolerance(config.requirement_tolerance),
            tests: TestGate::new(config.min_coverage),
            analysis: AnalysisGate::incremental(Default::default()),
            block_at: config.block_at,
            silent: Journal::disabled(),
        }
    }

    /// The first gate that rejects `commit` against `production`, in
    /// the tenant's order, or `None` when the commit would merge. Like
    /// the tenant, stops at the first rejection, which keeps the
    /// incremental analysis state in step with the tenant's.
    fn judge(
        &self,
        commit: &Commit,
        production: &UnixHost,
        stig: &Catalog<UnixHost>,
        rejects: &mut [u64; 4],
        spans: &mut Spans,
    ) -> Option<&'static str> {
        let delta = spans.scope("pipeline.artifact_delta", |_| commit.artifact_delta());
        let cx = GateContext::untraced(commit, production, &self.silent).with_delta(&delta);
        let compliance = ComplianceGate::new(stig, self.block_at);
        let gates: [&dyn Gate; 4] = [&self.requirements, &compliance, &self.tests, &self.analysis];
        for (i, gate) in gates.iter().enumerate() {
            let decision = spans.scope(GATES[i], |_| gate.evaluate(&cx));
            if !decision.passed {
                rejects[i] += 1;
                return Some(decision.gate);
            }
        }
        None
    }
}
