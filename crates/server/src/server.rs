//! The service itself: admission, fair dispatch, and the worker pool.
//!
//! One [`Server::run_load`] call drives the open-loop schedule to
//! completion. Each dispatch round advances through fixed phases; the
//! serve phase is one pass of the vdo-soc engine's worker pool
//! ([`vdo_soc::with_pool`]):
//!
//! 1. **admit** (main thread): the round's arrivals either enter their
//!    tenant's bounded queue or bounce with a typed [`Rejection`];
//! 2. **plan** (main thread): the weighted deficit-round-robin
//!    scheduler drains up to `capacity_per_round` requests into
//!    per-tenant batches;
//! 3. **serve** (worker pool): each tenant's batch is one item of the
//!    round's pass; because a tenant appears in at most one batch per
//!    round and a batch is processed by exactly one thread, per-tenant
//!    request order — and therefore the tenant's verdict log — is
//!    independent of worker count and scheduling. Before it takes
//!    batches itself, the main thread frees the batches the previous
//!    pass served and draws the next round's arrivals from the
//!    generator. A panic while serving fails the run;
//! 4. **respond** (main thread): responses merge in tenant-index
//!    order, latency histograms and journal events are recorded, and
//!    the spent batches are set aside for the next pass to free.
//!
//! Requests are freed on the thread that built them. The generator
//! allocates every request on the main thread; when the serving worker
//! dropped its batch, about half the frees took the main thread's
//! malloc arena lock while the main thread allocated in it. One
//! `service_commits` repetition of the perf ledger (116 rounds) then
//! made 11,600–12,200 voluntary context switches at 2 workers and ran
//! no faster than at 1 worker; with the frees on the main thread it
//! makes 380–410, about what the pool's two barriers per round cost.
//!
//! Determinism contract: with equal seeds, per-tenant verdict logs and
//! the journal (its events and their order) are byte-identical at any
//! worker count. Drawing a round's arrivals early changes neither: the
//! generator is a pure function of its seed and emits no event.
//! Wall-clock instruments (`service_nanos`) are the only
//! machine-dependent output and never feed a deterministic surface.

use std::time::Instant;

use parking_lot::Mutex;

use vdo_soc::{with_pool, SecEvent, ShardedBus};
use vdo_trace::{BurnRateRule, Event, Journal, LiveSloEngine, SloAlert, TraceContext};

use crate::load::LoadGen;
use crate::metrics::{ServerMetrics, ServerMetricsSnapshot};
use crate::queue::TenantQueue;
use crate::request::{Envelope, RejectReason, Rejection, Request, Response};
use crate::sched::DrrScheduler;
use crate::tenant::{Tenant, TenantConfig};

/// Service parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum requests served per dispatch round, across all tenants
    /// (clamped to >= 1). With an open-loop rate above this, queues
    /// fill and admission control starts rejecting.
    pub capacity_per_round: usize,
    /// DRR quantum: credit units a tenant of weight 1 earns per visit.
    pub quantum: u64,
    /// Threads serving batches, the calling thread included (clamped
    /// to at least 1). The calling thread also builds and frees every
    /// request, and does so during each serve pass, so a second worker
    /// adds serving capacity without adding allocator contention.
    pub workers: usize,
    /// Retain every [`Response`] and [`Rejection`] in the report.
    /// Off by default — a million-request run only needs the
    /// aggregates.
    pub retain_responses: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity_per_round: 64,
            quantum: 4,
            workers: 4,
            retain_responses: false,
        }
    }
}

/// Causal tracing for one server run. A disabled journal (the
/// [`Default`]) turns the layer off entirely; when enabled, every
/// tenant gets a root [`TraceContext`] derived from `trace_seed` and
/// its name, every admitted request a `req` child of that root, and
/// every response a `response` child of its request — so any response
/// resolves back to its tenant and originating request by trace
/// lineage alone.
#[derive(Debug, Clone, Default)]
pub struct ServerTracing {
    /// The event journal; [`Journal::disabled`] makes this inert.
    pub journal: Journal,
    /// Seed for tenant-root trace contexts.
    pub trace_seed: u64,
    /// Streaming per-tenant SLO alerting; `None` (the default) turns
    /// the evaluator off. Only active while the journal is enabled,
    /// like every other tracing surface.
    pub slo: Option<ServerSloPolicy>,
}

impl ServerTracing {
    /// Journal + seed.
    #[must_use]
    pub fn new(journal: Journal, trace_seed: u64) -> Self {
        ServerTracing {
            journal,
            trace_seed,
            slo: None,
        }
    }

    /// Attaches a streaming SLO policy: one resident
    /// [`LiveSloEngine`] per tenant over `policy.rules`, evaluated
    /// every `policy.period` rounds.
    #[must_use]
    pub fn with_slo(mut self, policy: ServerSloPolicy) -> Self {
        self.slo = Some(policy);
        self
    }

    /// Journal + seed with a durable columnar sink: every accepted
    /// event streams into segment files under `dir` (the
    /// [`vdo_trace::colfmt`] format) before it enters the in-memory
    /// ring, so a tenant's full request lineage survives ring wrap.
    /// Call [`Journal::sync`] (or drop the journal) after the run to
    /// seal the open segment.
    pub fn persistent(
        dir: &std::path::Path,
        trace_seed: u64,
        config: vdo_trace::JournalConfig,
    ) -> std::io::Result<Self> {
        let sink = vdo_trace::DirWriter::create(dir, "vdo-journal v1\nsource=server\n")?;
        Ok(ServerTracing::new(
            Journal::with_sink(config, Box::new(sink)),
            trace_seed,
        ))
    }

    /// The inert layer.
    #[must_use]
    pub fn disabled() -> Self {
        ServerTracing::default()
    }

    /// `true` when events and trace contexts are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.journal.is_enabled()
    }
}

/// Streaming per-tenant SLO alerting for one server run.
///
/// Every tenant gets its own resident [`LiveSloEngine`] over the same
/// rule set, fed from the admission and merge phases and evaluated at
/// the end of each dispatch round (on the `period` cadence). The
/// signals a rule may reference:
///
/// * `server.admitted` / `server.rejected` / `server.completed` —
///   per-tenant counters;
/// * `server.queue_latency` — per-tenant end-to-end latency histogram
///   in dispatch rounds.
///
/// Fired alerts are journalled by the engine (`slo.alert`), echoed as
/// tenant-tagged `server.slo_alert` events, collected into
/// [`ServiceReport::slo_alerts`], and — when `bus` is set — published
/// onto the SOC bus as [`SecEvent::SloAlert`] with the tenant index
/// as the routed host, closing the loop from the service plane back
/// into security operations.
#[derive(Clone)]
pub struct ServerSloPolicy {
    /// Burn-rate rules, evaluated independently per tenant.
    pub rules: Vec<BurnRateRule>,
    /// Evaluate every `period` rounds (clamped to >= 1).
    pub period: u64,
    /// Optional SOC bus fired alerts are published onto. Backpressure
    /// is tolerated: the alert is already journalled and lands in the
    /// report regardless.
    pub bus: Option<std::sync::Arc<ShardedBus>>,
}

impl std::fmt::Debug for ServerSloPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerSloPolicy")
            .field("rules", &self.rules)
            .field("period", &self.period)
            .field("bus", &self.bus.is_some())
            .finish()
    }
}

impl Default for ServerSloPolicy {
    fn default() -> Self {
        ServerSloPolicy {
            rules: Vec::new(),
            period: 1,
            bus: None,
        }
    }
}

/// Result of one [`Server::run_load`] (or [`Server::drain`]) call.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// Requests admitted, per tenant.
    pub admitted_by_tenant: Vec<u64>,
    /// Requests rejected by admission control, per tenant.
    pub rejected_by_tenant: Vec<u64>,
    /// Requests addressed to a tenant index the server does not have,
    /// rejected at admission.
    pub rejected_unknown: u64,
    /// Responses produced, per tenant.
    pub completed_by_tenant: Vec<u64>,
    /// Every rejection, when `retain_responses` is set (else empty).
    pub rejections: Vec<Rejection>,
    /// Every response, when `retain_responses` is set (else empty).
    pub responses: Vec<Response>,
    /// Per-tenant verdict logs as of the end of the run.
    /// Byte-identical across equal-seed runs at any worker count.
    pub verdict_logs: Vec<String>,
    /// SLO alerts fired during the run as `(tenant, alert)` pairs, in
    /// firing order. Empty unless [`ServerTracing::slo`] is set.
    pub slo_alerts: Vec<(usize, SloAlert)>,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// Frozen instruments.
    pub metrics: ServerMetricsSnapshot,
}

impl ServiceReport {
    /// Total requests admitted.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted_by_tenant.iter().sum()
    }

    /// Total requests rejected at admission, unknown tenants included.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_by_tenant.iter().sum::<u64>() + self.rejected_unknown
    }

    /// Total responses produced.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed_by_tenant.iter().sum()
    }

    /// Responses per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// End-to-end latency quantile in dispatch rounds (`q` in `[0,1]`),
    /// from the deterministic queue-latency histogram.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.metrics.queue_latency.quantile(q).unwrap_or(0.0)
    }
}

/// Per-tenant exchange slot for one dispatch round: the main thread
/// deposits the planned batch, the serving thread adds the responses
/// and leaves the spent batch for the main thread to free.
#[derive(Default)]
struct RoundSlot {
    input: Vec<Envelope>,
    output: Vec<Response>,
}

/// The multi-tenant VeriDevOps service front end.
pub struct Server {
    config: ServerConfig,
    tenants: Vec<Mutex<Tenant>>,
    queues: Vec<TenantQueue>,
    weights: Vec<u64>,
    next_seq: Vec<u64>,
    clock: u64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("tenants", &self.tenants.len())
            .field("clock", &self.clock)
            .finish()
    }
}

impl Server {
    /// An empty server (no tenants yet) with clamped configuration.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Server {
            config: ServerConfig {
                capacity_per_round: config.capacity_per_round.max(1),
                quantum: config.quantum.max(1),
                workers: config.workers.max(1),
                retain_responses: config.retain_responses,
            },
            tenants: Vec::new(),
            queues: Vec::new(),
            weights: Vec::new(),
            next_seq: Vec::new(),
            clock: 0,
        }
    }

    /// Provisions a tenant and returns its index (the address requests
    /// are submitted to).
    pub fn register_tenant(&mut self, config: &TenantConfig) -> usize {
        let idx = self.tenants.len();
        self.tenants.push(Mutex::new(Tenant::new(config)));
        self.queues.push(TenantQueue::new(config.queue_capacity));
        self.weights.push(config.weight.max(1));
        self.next_seq.push(0);
        idx
    }

    /// Registered tenant count.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Locks and returns one tenant's state (inspection between runs).
    ///
    /// # Panics
    /// When `idx` is out of range.
    pub fn tenant(&self, idx: usize) -> parking_lot::MutexGuard<'_, Tenant> {
        self.tenants[idx].lock()
    }

    /// The dispatch round the next admission will be stamped with.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Synchronously submits one request through admission control.
    /// The request waits in its tenant queue until the next
    /// [`Server::drain`] or [`Server::run_load`] serves it.
    ///
    /// # Errors
    /// A typed [`Rejection`] when the tenant is unknown or its queue is
    /// at capacity.
    pub fn submit(&mut self, tenant: usize, request: Request) -> Result<u64, Rejection> {
        if tenant >= self.tenants.len() {
            return Err(Rejection {
                tenant,
                at: self.clock,
                reason: RejectReason::UnknownTenant(tenant),
            });
        }
        let seq = self.next_seq[tenant];
        let env = Envelope {
            tenant,
            seq,
            submitted_at: self.clock,
            request,
            trace: None,
        };
        match self.queues[tenant].try_push(env) {
            Ok(()) => {
                self.next_seq[tenant] += 1;
                Ok(seq)
            }
            Err(_) => Err(Rejection {
                tenant,
                at: self.clock,
                reason: RejectReason::QueueFull(self.queues[tenant].capacity()),
            }),
        }
    }

    /// Serves everything already queued (no new arrivals) and returns
    /// the report for those rounds.
    pub fn drain(&mut self, metrics: &ServerMetrics, tracing: &ServerTracing) -> ServiceReport {
        self.run_load(&mut LoadGen::idle(), metrics, tracing)
    }

    /// Drives the open-loop schedule to completion: every request the
    /// generator emits is admitted or rejected, every admitted request
    /// is served, and the report aggregates the whole run.
    #[allow(clippy::too_many_lines)]
    pub fn run_load(
        &mut self,
        gen: &mut LoadGen,
        metrics: &ServerMetrics,
        tracing: &ServerTracing,
    ) -> ServiceReport {
        let n = self.tenants.len();
        let cfg = self.config.clone();
        let journal = &tracing.journal;
        let tracing_on = journal.is_enabled();
        let wall_start = Instant::now();

        // Disjoint field borrows: workers share `tenants`, the main
        // thread owns queues/sequence/clock mutably.
        let tenants = &self.tenants;
        let tenant_queues = &mut self.queues;
        let next_seq = &mut self.next_seq;
        let clock = &mut self.clock;

        // Per-tenant trace roots, journalled once per run.
        let roots: Vec<Option<TraceContext>> = (0..n)
            .map(|t| {
                tracing_on.then(|| {
                    let root = TraceContext::root(tracing.trace_seed, tenants[t].lock().name());
                    journal.emit(
                        Event::info("tenant.registered")
                            .at(*clock)
                            .trace(root)
                            .field("tenant", t),
                    );
                    root
                })
            })
            .collect();

        // One resident SLO evaluator per tenant, each with a distinct
        // deterministic seed so per-tenant alert traces never collide.
        let mut live_slo: Vec<LiveSloEngine> = match tracing.slo.as_ref().filter(|_| tracing_on) {
            Some(policy) => (0..n)
                .map(|t| {
                    let seed =
                        tracing.trace_seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    LiveSloEngine::new(seed, policy.rules.clone())
                })
                .collect(),
            None => Vec::new(),
        };
        let mut slo_alerts: Vec<(usize, SloAlert)> = Vec::new();

        let mut sched = DrrScheduler::new(&self.weights, cfg.quantum);
        let slots: Vec<Mutex<RoundSlot>> =
            (0..n).map(|_| Mutex::new(RoundSlot::default())).collect();

        let mut rounds = 0u64;
        let mut admitted_by_tenant = vec![0u64; n];
        let mut rejected_by_tenant = vec![0u64; n];
        let mut rejected_unknown = 0u64;
        let mut completed_by_tenant = vec![0u64; n];
        let mut rejections: Vec<Rejection> = Vec::new();
        let mut responses: Vec<Response> = Vec::new();

        // Serves tenant `t`'s batch for round `now`.
        let work = |now: u64, t: usize| {
            let mut tenant = tenants[t].lock();
            let slot = &mut *slots[t].lock();
            for env in &slot.input {
                let t0 = Instant::now();
                let outcome = tenant.handle(env, now);
                metrics
                    .service_nanos
                    .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                slot.output.push(Response {
                    tenant: env.tenant,
                    seq: env.seq,
                    kind: env.request.kind(),
                    submitted_at: env.submitted_at,
                    completed_at: now,
                    outcome,
                    trace: env.trace.map(|t| t.child("response")),
                });
            }
        };
        with_pool(cfg.workers, work, |pool| {
            let mut busy = Vec::new();
            // The batches the last pass served, freed by the next one.
            let mut spent: Vec<Vec<Envelope>> = Vec::new();
            // The next round's arrivals, drawn during this round's pass.
            let mut drawn: Option<Vec<(usize, Request)>> = None;
            let mut run_round = 0u64;
            loop {
                let now = *clock;

                // --- Phase 1 (main): admit this round's arrivals ----
                let arrivals = drawn.take().unwrap_or_else(|| gen.arrivals_for(run_round));
                for (tenant, request) in arrivals {
                    if tenant >= n {
                        rejected_unknown += 1;
                        metrics.rejected.inc();
                        if cfg.retain_responses {
                            rejections.push(Rejection {
                                tenant,
                                at: now,
                                reason: RejectReason::UnknownTenant(tenant),
                            });
                        }
                        continue;
                    }
                    let kind = request.kind();
                    let seq = next_seq[tenant];
                    let env = Envelope {
                        tenant,
                        seq,
                        submitted_at: now,
                        request,
                        trace: roots[tenant].map(|r| r.child_u64("req", seq)),
                    };
                    match tenant_queues[tenant].try_push(env) {
                        Ok(()) => {
                            next_seq[tenant] += 1;
                            admitted_by_tenant[tenant] += 1;
                            metrics.admitted.inc();
                            metrics.kind(kind).inc();
                            metrics
                                .max_queue_depth
                                .record_max(tenant_queues[tenant].len() as u64);
                            if let Some(live) = live_slo.get_mut(tenant) {
                                live.incr("server.admitted", now, 1);
                            }
                            if tracing_on {
                                journal.emit(
                                    Event::debug("server.admit")
                                        .at(now)
                                        .trace(
                                            roots[tenant]
                                                .expect("tracing on")
                                                .child_u64("req", seq),
                                        )
                                        .field("tenant", tenant)
                                        .field("seq", seq)
                                        .field("kind", kind.as_str()),
                                );
                            }
                        }
                        Err(_) => {
                            rejected_by_tenant[tenant] += 1;
                            metrics.rejected.inc();
                            if let Some(live) = live_slo.get_mut(tenant) {
                                live.incr("server.rejected", now, 1);
                            }
                            let capacity = tenant_queues[tenant].capacity();
                            if tracing_on {
                                let mut ev = Event::warn("server.reject")
                                    .at(now)
                                    .field("tenant", tenant)
                                    .field("capacity", capacity);
                                if let Some(r) = roots[tenant] {
                                    ev = ev.trace(r.child_u64("reject", now));
                                }
                                journal.emit(ev);
                            }
                            if cfg.retain_responses {
                                rejections.push(Rejection {
                                    tenant,
                                    at: now,
                                    reason: RejectReason::QueueFull(capacity),
                                });
                            }
                        }
                    }
                }

                // --- Phase 2 (main): plan the round under DRR -------
                let plan = sched.plan(tenant_queues, cfg.capacity_per_round);
                if !plan.is_empty() {
                    busy.clear();
                    for (t, batch) in plan {
                        slots[t].lock().input = batch;
                        busy.push(t);
                    }
                    // --- Phase 3 (workers): serve; meanwhile the main
                    // thread frees the last pass's batches and draws
                    // the next round's arrivals ------------------------
                    pool.pass(now, &busy, || {
                        spent.clear();
                        drawn = Some(gen.arrivals_for(run_round + 1));
                    });
                    // --- Phase 4 (main): merge in tenant order ------
                    for (t, slot) in slots.iter().enumerate() {
                        let mut slot = slot.lock();
                        spent.push(std::mem::take(&mut slot.input));
                        for resp in slot.output.drain(..) {
                            completed_by_tenant[t] += 1;
                            metrics.completed.inc();
                            // A traced response exemplar-links its
                            // latency bucket to the request lineage.
                            match resp.trace {
                                Some(tr) => metrics
                                    .queue_latency
                                    .record_traced(resp.latency(), tr.trace_id.0),
                                None => metrics.queue_latency.record(resp.latency()),
                            }
                            if let Some(live) = live_slo.get_mut(t) {
                                live.incr("server.completed", now, 1);
                                live.observe_value("server.queue_latency", now, resp.latency());
                            }
                            if tracing_on {
                                let mut ev = Event::debug("server.response")
                                    .at(now)
                                    .field("tenant", t)
                                    .field("seq", resp.seq)
                                    .field("latency", resp.latency());
                                if let Some(tr) = resp.trace {
                                    ev = ev.trace(tr);
                                }
                                journal.emit(ev);
                            }
                            if cfg.retain_responses {
                                responses.push(resp);
                            }
                        }
                    }
                }

                // --- SLO evaluation (main): end of round ------------
                if let Some(policy) = tracing.slo.as_ref().filter(|_| !live_slo.is_empty()) {
                    if (run_round + 1).is_multiple_of(policy.period.max(1)) {
                        let mut slo_events = Vec::new();
                        for (t, live) in live_slo.iter_mut().enumerate() {
                            let alerts = live.end_tick(now, &mut slo_events);
                            for event in slo_events.drain(..) {
                                journal.emit(event);
                            }
                            for alert in alerts {
                                journal.emit(
                                    Event::warn("server.slo_alert")
                                        .at(now)
                                        .trace(alert.trace.child_u64("tenant", t as u64))
                                        .field("tenant", t)
                                        .field("rule", alert.rule.clone()),
                                );
                                if let Some(bus) = &policy.bus {
                                    // Backpressure only costs the bus
                                    // copy: the alert is journalled and
                                    // lands in the report regardless.
                                    let _ = bus.publish_traced(
                                        SecEvent::SloAlert {
                                            host: t,
                                            tick: now,
                                            rule: alert.rule.clone(),
                                        },
                                        Some(alert.trace),
                                    );
                                }
                                slo_alerts.push((t, alert));
                            }
                        }
                    }
                }

                *clock += 1;
                run_round += 1;
                rounds += 1;
                if gen.remaining() == 0
                    && drawn.as_ref().is_none_or(Vec::is_empty)
                    && tenant_queues.iter().all(TenantQueue::is_empty)
                {
                    break;
                }
            }
        });

        let verdict_logs = tenants
            .iter()
            .map(|t| t.lock().verdict_log().to_string())
            .collect();
        let wall_secs = wall_start.elapsed().as_secs_f64();
        ServiceReport {
            rounds,
            admitted_by_tenant,
            rejected_by_tenant,
            rejected_unknown,
            completed_by_tenant,
            rejections,
            responses,
            verdict_logs,
            slo_alerts,
            wall_secs,
            metrics: metrics.snapshot(wall_secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadConfig;

    fn server(tenants: usize, capacity: usize, workers: usize) -> Server {
        let mut s = Server::new(ServerConfig {
            capacity_per_round: capacity,
            workers,
            retain_responses: true,
            ..ServerConfig::default()
        });
        for i in 0..tenants {
            s.register_tenant(&TenantConfig::new(format!("tenant-{i}")).with_seed(i as u64));
        }
        s
    }

    #[test]
    fn every_generated_request_is_admitted_or_rejected_and_served() {
        let mut s = server(4, 32, 2);
        let mut gen = LoadGen::new(LoadConfig::even(4, 2_000, 40, 5));
        let metrics = ServerMetrics::new();
        let report = s.run_load(&mut gen, &metrics, &ServerTracing::disabled());
        assert_eq!(report.admitted() + report.rejected(), 2_000);
        assert_eq!(report.completed(), report.admitted(), "queues fully drain");
        assert_eq!(report.responses.len() as u64, report.completed());
        assert_eq!(report.metrics.admitted, report.admitted());
    }

    #[test]
    fn arrivals_for_unknown_tenants_count_as_rejected() {
        let mut s = server(2, 32, 2);
        let mut gen = LoadGen::new(LoadConfig::even(3, 900, 30, 8));
        let metrics = ServerMetrics::new();
        let report = s.run_load(&mut gen, &metrics, &ServerTracing::disabled());
        assert!(report.rejected_unknown > 0, "a third of the arrivals miss");
        assert_eq!(report.admitted() + report.rejected(), 900);
        assert_eq!(report.rejected(), report.metrics.rejected);
        assert!(report
            .rejections
            .iter()
            .all(|r| r.reason == RejectReason::UnknownTenant(2)));
    }

    #[test]
    fn overload_rejects_with_queue_full() {
        let mut s = Server::new(ServerConfig {
            capacity_per_round: 2,
            workers: 2,
            retain_responses: true,
            ..ServerConfig::default()
        });
        s.register_tenant(&TenantConfig::new("small").with_queue_capacity(8));
        // 100 arrivals per round into a depth-8 queue served 2 per
        // round: overflow must bounce with the typed reason.
        let mut gen = LoadGen::new(LoadConfig::even(1, 1_000, 100, 9));
        let metrics = ServerMetrics::new();
        let report = s.run_load(&mut gen, &metrics, &ServerTracing::disabled());
        assert!(report.rejected() > 0);
        assert!(report
            .rejections
            .iter()
            .all(|r| r.reason == RejectReason::QueueFull(8)));
        assert_eq!(report.admitted() + report.rejected(), 1_000);
        assert_eq!(report.completed(), report.admitted());
    }

    #[test]
    fn sync_submit_and_drain_round_trip() {
        let mut s = server(2, 16, 1);
        s.submit(0, Request::RunOps { ticks: 2 }).unwrap();
        s.submit(1, Request::QueryIncident { rule: None }).unwrap();
        let err = s
            .submit(7, Request::QueryIncident { rule: None })
            .unwrap_err();
        assert_eq!(err.reason, RejectReason::UnknownTenant(7));
        let metrics = ServerMetrics::new();
        let report = s.drain(&metrics, &ServerTracing::disabled());
        assert_eq!(report.completed(), 2);
        assert_eq!(report.completed_by_tenant, vec![1, 1]);
    }

    #[test]
    fn responses_resolve_to_their_tenant_and_request_by_trace() {
        let mut s = server(3, 16, 2);
        let mut gen = LoadGen::new(LoadConfig::even(3, 300, 30, 2));
        let journal = Journal::new();
        let tracing = ServerTracing::new(journal.clone(), 77);
        let metrics = ServerMetrics::new();
        let report = s.run_load(&mut gen, &metrics, &tracing);
        assert!(report.completed() > 0);
        for resp in &report.responses {
            let trace = resp.trace.expect("traced run stamps every response");
            let root = TraceContext::root(77, s.tenant(resp.tenant).name());
            assert_eq!(
                trace,
                root.child_u64("req", resp.seq).child("response"),
                "response trace chains tenant root -> request -> response"
            );
        }
        let snap = journal.snapshot();
        assert_eq!(snap.events_named("tenant.registered").len(), 3);
        assert!(!snap.events_named("server.response").is_empty());
    }

    #[test]
    fn persistent_tracing_streams_the_tenant_path_to_disk() {
        let dir = std::env::temp_dir().join(format!("vdo-server-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = server(3, 16, 2);
        let mut gen = LoadGen::new(LoadConfig::even(3, 300, 30, 2));
        let tracing =
            ServerTracing::persistent(&dir, 77, vdo_trace::JournalConfig::default()).unwrap();
        let report = s.run_load(&mut gen, &ServerMetrics::new(), &tracing);
        assert!(report.completed() > 0);
        tracing.journal.sync();
        let disk = vdo_trace::JournalDir::open(&dir).unwrap();
        assert_eq!(disk.header().unwrap(), "vdo-journal v1\nsource=server\n");
        assert_eq!(
            disk.event_count().unwrap(),
            tracing.journal.accepted(),
            "the durable stream holds every accepted event"
        );
        let names: Vec<String> = disk
            .events()
            .unwrap()
            .into_iter()
            .map(|(_, e)| e.name.to_string())
            .collect();
        assert!(names.iter().any(|n| n == "tenant.registered"));
        assert!(names.iter().any(|n| n == "server.response"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn admission_rule() -> BurnRateRule {
        BurnRateRule {
            name: "admission".into(),
            signal: vdo_trace::SloSignal::CounterRatio {
                bad: "server.rejected".into(),
                total: "server.admitted".into(),
            },
            objective: 0.1,
            long_window: 10,
            short_window: 3,
            factor: 2.0,
        }
    }

    #[test]
    fn overloaded_tenant_fires_its_own_alert_onto_the_bus() {
        let mut s = Server::new(ServerConfig {
            capacity_per_round: 4,
            workers: 2,
            ..ServerConfig::default()
        });
        s.register_tenant(&TenantConfig::new("burning").with_queue_capacity(2));
        s.register_tenant(&TenantConfig::new("healthy").with_queue_capacity(4096));
        let mut gen = LoadGen::new(LoadConfig::even(2, 2_000, 40, 3));
        let bus = std::sync::Arc::new(ShardedBus::new(4, 4_096));
        let journal = Journal::new();
        let tracing = ServerTracing::new(journal.clone(), 77).with_slo(ServerSloPolicy {
            rules: vec![admission_rule()],
            period: 1,
            bus: Some(bus.clone()),
        });
        let report = s.run_load(&mut gen, &ServerMetrics::new(), &tracing);
        assert!(report.rejected_by_tenant[0] > 0, "tenant 0 overloads");
        assert_eq!(report.rejected_by_tenant[1], 0, "tenant 1 stays healthy");
        assert!(!report.slo_alerts.is_empty(), "the burn must alert");
        assert!(
            report.slo_alerts.iter().all(|(t, _)| *t == 0),
            "only the overloaded tenant fires: {:?}",
            report.slo_alerts
        );
        // The alert trace chains from the tenant's own engine seed, so
        // per-tenant alerts never collide.
        let (_, first) = &report.slo_alerts[0];
        let seed = 77u64 ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(
            first.trace,
            TraceContext::root(seed, "slo:admission").child_u64("alert", first.at)
        );
        // Every fired alert reaches the SOC bus as a typed event.
        let mut on_bus = 0;
        for shard in 0..bus.shard_count() {
            while let Some(env) = bus.pop(shard) {
                match env.event {
                    vdo_soc::SecEvent::SloAlert { host, rule, .. } => {
                        assert_eq!(host, 0);
                        assert_eq!(rule, "admission");
                        on_bus += 1;
                    }
                    other => panic!("unexpected bus event: {other:?}"),
                }
            }
        }
        assert_eq!(on_bus, report.slo_alerts.len());
        // And the journal carries both the engine event and the
        // tenant-tagged echo.
        let snap = journal.snapshot();
        assert_eq!(
            snap.events_named("slo.alert").len() + snap.events_named("server.slo_alert").len(),
            2 * report.slo_alerts.len()
        );
    }

    #[test]
    fn slo_policy_without_bus_still_reports_and_journals() {
        let mut s = Server::new(ServerConfig {
            capacity_per_round: 2,
            workers: 1,
            ..ServerConfig::default()
        });
        s.register_tenant(&TenantConfig::new("only").with_queue_capacity(2));
        let mut gen = LoadGen::new(LoadConfig::even(1, 1_000, 50, 1));
        let journal = Journal::new();
        let tracing = ServerTracing::new(journal.clone(), 5).with_slo(ServerSloPolicy {
            rules: vec![admission_rule()],
            ..ServerSloPolicy::default()
        });
        let report = s.run_load(&mut gen, &ServerMetrics::new(), &tracing);
        assert!(!report.slo_alerts.is_empty());
        assert!(!journal
            .snapshot()
            .events_named("server.slo_alert")
            .is_empty());
        // Disabled tracing keeps the whole layer inert even with a
        // policy attached.
        let mut s2 = Server::new(ServerConfig::default());
        s2.register_tenant(&TenantConfig::new("only"));
        let mut gen2 = LoadGen::new(LoadConfig::even(1, 100, 10, 1));
        let silent = ServerTracing {
            slo: Some(ServerSloPolicy {
                rules: vec![admission_rule()],
                ..ServerSloPolicy::default()
            }),
            ..ServerTracing::default()
        };
        let r2 = s2.run_load(&mut gen2, &ServerMetrics::new(), &silent);
        assert!(r2.slo_alerts.is_empty(), "disabled journal, no evaluator");
    }

    #[test]
    fn traced_responses_leave_latency_exemplars() {
        let mut s = server(2, 32, 2);
        let mut gen = LoadGen::new(LoadConfig::even(2, 400, 20, 4));
        let journal = Journal::new();
        let metrics = ServerMetrics::new();
        let report = s.run_load(&mut gen, &metrics, &ServerTracing::new(journal, 9));
        assert!(report.completed() > 0);
        let snap = metrics.queue_latency.snapshot();
        let exemplars: Vec<_> = snap.exemplars.iter().flatten().collect();
        assert!(
            !exemplars.is_empty(),
            "traced responses stamp bucket exemplars"
        );
        // Exemplar trace ids resolve to real tenant roots.
        let roots: Vec<u64> = (0..2)
            .map(|t| TraceContext::root(9, s.tenant(t).name()).trace_id.0)
            .collect();
        for ex in exemplars {
            assert!(roots.contains(&ex.trace_id), "exemplar {ex:?} resolves");
        }
    }

    #[test]
    fn disabled_tracing_changes_no_verdicts() {
        let run = |traced: bool| {
            let mut s = server(2, 32, 2);
            let mut gen = LoadGen::new(LoadConfig::even(2, 400, 20, 6));
            let tracing = if traced {
                ServerTracing::new(Journal::new(), 1)
            } else {
                ServerTracing::disabled()
            };
            s.run_load(&mut gen, &ServerMetrics::new(), &tracing)
                .verdict_logs
        };
        assert_eq!(run(true), run(false));
    }
}
