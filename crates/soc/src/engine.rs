//! The event-driven security-operations engine.
//!
//! One [`SocEngine::run`] simulates `duration` ticks over a fleet. Each
//! tick advances through fixed phases, coordinated by two barriers:
//!
//! 1. **publish** (main thread): seeded drift mutates hosts and every
//!    mutation becomes a bus event; telemetry signals are sampled;
//!    events deferred by backpressure on a previous tick re-publish
//!    first so per-host order survives overload. Events are staged per
//!    shard and each shard is handed to the bus with one lock at the end
//!    of the phase;
//! 2. **process** (worker pool): each non-empty shard becomes one
//!    [`Batch`]; workers pull batches work-stealing style, take their
//!    shard's whole queue with one lock and run it through the
//!    monitors, accumulating [`Detection`]s. A shard keeps its hosts'
//!    monitors in a `Vec`; the run builds a host→slot table once, from
//!    the bus's host→shard routing, and every worker reads it to find a
//!    host's monitors by index. Every host's TEARS monitor shares the
//!    assertion the engine parsed once.
//!    Because monitors run *per event*, a violation is detected on the
//!    tick it happens — the polling baseline pays `(period - 1) / 2`
//!    ticks of mean latency for the same detection;
//! 3. **remediate** (main thread): detections merge in `(shard, seq)`
//!    order — making the incident log independent of worker count and
//!    scheduling — and feed the retry/backoff dispatcher. A due task runs
//!    [`RemediationPlanner::remediate`] and acts on the verdicts it
//!    returns, which are the catalogue check that closes the
//!    remediation. If the task's own rule still fails, the attempt
//!    failed, exactly as if a fault had been injected: the dispatcher
//!    retries it with backoff or dead-letters it.
//!
//! Determinism: with a fixed seed the incident log is byte-identical
//! across runs *and across worker counts*, because host→shard routing
//! is a fixed hash, one batch is processed by exactly one worker, the
//! detection merge is totally ordered, and remediation fault rolls are
//! pure hashes rather than draws from a shared RNG stream.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::deque::Worker;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vdo_core::{Catalog, CheckStatus, RemediationPlanner};
use vdo_host::{DriftInjector, HostWrite};
use vdo_tears::GuardedAssertion;
use vdo_temporal::{PatternMonitor, Trace};
use vdo_trace::{BurnRateRule, Event, Journal, LiveSloEngine, Severity, SloAlert, TraceContext};

use crate::bus::{PublishError, ShardedBus};
use crate::event::{Envelope, SecEvent};
use crate::metrics::{MetricsSnapshot, SocMetrics};
use crate::monitors::{Detection, DetectionKind, HostMonitors};
use crate::remediation::{DeadLetter, Dispatcher, RemediationConfig, RemediationTask, SocIncident};
use crate::runtime::{Batch, TaskQueues, TaskSource};

/// A host class the engine can operate: drift must be injectable and
/// the state must be shareable with the worker pool.
///
/// Blanket-implemented for every [`HostWrite`] type, so owned host
/// structs and store-backed views all qualify with one definition.
pub trait SocHost: Send + Sync {
    /// Applies `n` random drift events, reporting what changed.
    fn apply_drift(&mut self, injector: &mut DriftInjector, n: usize) -> Vec<vdo_host::DriftEvent>;
}

impl<H: HostWrite + Send + Sync> SocHost for H {
    fn apply_drift(&mut self, injector: &mut DriftInjector, n: usize) -> Vec<vdo_host::DriftEvent> {
        let platform = self.platform();
        injector.drift(self, platform, n)
    }
}

/// Engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Ticks to simulate.
    pub duration: u64,
    /// Per-host per-tick probability of one drift event.
    pub drift_rate: f64,
    /// Worker threads in the pool (must be >= 1).
    pub workers: usize,
    /// Bus shards (must be >= 1).
    pub shards: usize,
    /// Bounded capacity of each shard queue (must be >= 1).
    pub queue_capacity: usize,
    /// Master seed for drift timing, drift content, telemetry, and
    /// remediation faults.
    pub seed: u64,
    /// Simulated I/O latency per processed batch (agent round-trip);
    /// zero disables the sleep. This is what makes multi-worker
    /// scaling observable on the simulated clock.
    pub io_latency: Duration,
    /// TEARS guarded assertion (source text) monitored over per-host
    /// telemetry; `None` disables telemetry events entirely.
    pub tears_assertion: Option<String>,
    /// Per-host per-tick probability of a brute-force burst in the
    /// synthesized telemetry (only used when `tears_assertion` is set).
    pub attack_rate: f64,
    /// Retry/backoff/fault policy for remediation.
    pub remediation: RemediationConfig,
}

impl SocConfig {
    /// Checks the values the engine relies on: nonzero worker, shard
    /// and queue sizes, and `drift_rate`, `attack_rate` and
    /// `remediation.fault_rate` probabilities in `[0, 1]` (NaN
    /// rejected). [`SocEngine::new`] calls this, and so should code
    /// that reads a configuration from outside the program before it
    /// runs anything (the replay spec parser does).
    ///
    /// # Errors
    /// The first rejected value.
    pub fn validate(&self) -> Result<(), SocConfigError> {
        if self.workers == 0 {
            return Err(SocConfigError::ZeroWorkers);
        }
        if self.shards == 0 {
            return Err(SocConfigError::ZeroShards);
        }
        if self.queue_capacity == 0 {
            return Err(SocConfigError::ZeroQueueCapacity);
        }
        for (field, value) in [
            ("drift_rate", self.drift_rate),
            ("attack_rate", self.attack_rate),
            ("remediation.fault_rate", self.remediation.fault_rate),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SocConfigError::InvalidRate { field, value });
            }
        }
        Ok(())
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            duration: 1_000,
            drift_rate: 0.02,
            workers: 4,
            shards: 16,
            queue_capacity: 1_024,
            seed: 0,
            io_latency: Duration::ZERO,
            tears_assertion: None,
            attack_rate: 0.02,
            remediation: RemediationConfig::default(),
        }
    }
}

/// Causal-tracing and SLO wiring for one engine run.
///
/// A disabled journal (the [`Default`]) turns the whole layer off: no
/// events are emitted, no trace contexts are minted, and the run is
/// byte-identical to an untraced one. When enabled, `trace_seed` must
/// match the seed the ingestion side (the pipeline scenario) used to
/// mint requirement roots, so an incident detected here resolves to
/// the catalogue requirement that caused it.
#[derive(Debug, Clone, Default)]
pub struct SocTracing {
    /// The event journal; [`Journal::disabled`] makes this struct inert.
    pub journal: Journal,
    /// Seed for requirement-root [`TraceContext`]s.
    pub trace_seed: u64,
    /// Optional SLO burn-rate policy evaluated during the run.
    pub slo: Option<SloPolicy>,
}

impl SocTracing {
    /// Journal + seed, no SLO policy.
    #[must_use]
    pub fn new(journal: Journal, trace_seed: u64) -> Self {
        SocTracing {
            journal,
            trace_seed,
            slo: None,
        }
    }

    /// Journal + seed with a durable columnar sink: every accepted
    /// event streams into segment files under `dir` (the
    /// [`vdo_trace::colfmt`] format) *before* it enters the in-memory
    /// ring, so the on-disk record has no lossy tail even when the
    /// ring wraps. Call [`Journal::sync`] (or drop the journal) after
    /// the run to seal the open segment.
    pub fn persistent(
        dir: &std::path::Path,
        trace_seed: u64,
        config: vdo_trace::JournalConfig,
    ) -> std::io::Result<Self> {
        let sink = vdo_trace::DirWriter::create(dir, "vdo-journal v1\nsource=soc\n")?;
        Ok(SocTracing::new(
            Journal::with_sink(config, Box::new(sink)),
            trace_seed,
        ))
    }

    /// The inert layer: disabled journal, no tracing, no SLO.
    #[must_use]
    pub fn disabled() -> Self {
        SocTracing::default()
    }

    /// `true` when events and trace contexts are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.journal.is_enabled()
    }
}

/// In-run SLO evaluation, streaming: the engine feeds a resident
/// [`LiveSloEngine`] per event from the main thread (published /
/// deferred volumes, detection latencies, retries, dead letters,
/// remediations) and evaluates every `period` ticks — no registry
/// snapshots anywhere in the loop. Alerts are journalled and published
/// as [`SecEvent::SloAlert`] on the bus (triggering a re-audit —
/// observability closing back into reaction).
///
/// Rules reference the engine's live signal names: the counters
/// `soc.events_published`, `soc.events_deferred`, `soc.retries`,
/// `soc.dead_letters`, `soc.remediations`, `soc.checks_run`, and the
/// histogram `soc.detection_latency` (tick-bucketed).
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Burn-rate rules to evaluate.
    pub rules: Vec<BurnRateRule>,
    /// Evaluation cadence in ticks (zero disables evaluation; 1 — the
    /// [`Default`] — evaluates every tick).
    pub period: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            rules: Vec::new(),
            period: 1,
        }
    }
}

/// Rejected [`SocConfig`] values.
#[derive(Debug, Clone, PartialEq)]
pub enum SocConfigError {
    /// `workers` was zero.
    ZeroWorkers,
    /// `shards` was zero.
    ZeroShards,
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// A probability was outside `[0, 1]` or NaN.
    InvalidRate {
        /// The configuration field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `tears_assertion` failed to parse; the payload is the parser's
    /// message.
    InvalidAssertion(String),
}

impl std::fmt::Display for SocConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocConfigError::ZeroWorkers => f.write_str("worker pool needs at least one worker"),
            SocConfigError::ZeroShards => f.write_str("event bus needs at least one shard"),
            SocConfigError::ZeroQueueCapacity => {
                f.write_str("shard queues must hold at least one event")
            }
            SocConfigError::InvalidRate { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            SocConfigError::InvalidAssertion(e) => write!(f, "invalid TEARS assertion: {e}"),
        }
    }
}

impl std::error::Error for SocConfigError {}

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct SocReport {
    /// All incidents in deterministic `(shard, seq)` detection order.
    pub incidents: Vec<SocIncident>,
    /// Remediations abandoned after exhausting retries.
    pub dead_letters: Vec<DeadLetter>,
    /// Drift events injected.
    pub drift_events: u64,
    /// Host-ticks spent with at least one open violation.
    pub noncompliant_host_ticks: u64,
    /// Ticks simulated.
    pub duration: u64,
    /// Per-tick "whole fleet compliant" bit, for post-hoc temporal
    /// evaluation.
    pub fleet_compliance_trace: Trace<bool>,
    /// SLO burn-rate alerts fired during the run (empty unless an
    /// [`SloPolicy`] was active).
    pub slo_alerts: Vec<SloAlert>,
    /// Counter and histogram snapshot.
    pub metrics: MetricsSnapshot,
}

impl SocReport {
    /// Mean detection latency over STIG incidents, in ticks.
    #[must_use]
    pub fn mean_detection_latency(&self) -> f64 {
        let stig: Vec<u64> = self
            .incidents
            .iter()
            .filter(|i| i.kind == DetectionKind::Stig)
            .map(SocIncident::latency)
            .collect();
        if stig.is_empty() {
            0.0
        } else {
            stig.iter().sum::<u64>() as f64 / stig.len() as f64
        }
    }

    /// Fraction of host-ticks spent out of compliance.
    #[must_use]
    pub fn exposure(&self, hosts: usize) -> f64 {
        let total = self.duration * hosts as u64;
        if total == 0 {
            0.0
        } else {
            self.noncompliant_host_ticks as f64 / total as f64
        }
    }

    /// Canonical JSON incident log. Runs with equal seeds produce
    /// byte-identical logs regardless of worker count.
    #[must_use]
    pub fn incident_log(&self) -> String {
        serde::json::to_string(&self.incidents)
    }
}

/// Per-host violation ledger entry: open rule -> incident index.
type OpenRules = BTreeMap<String, usize>;

/// Per-shard worker-side state: host monitors plus this tick's
/// detections, the buffer the shard's queue is taken into, and the
/// tracing seed (copied in so any worker derives detection contexts
/// locally without touching shared tracing state).
///
/// `hosts` holds the monitors of the shard's hosts in ascending host
/// order; a host's index in it is its *slot*, read from the run's
/// host→slot table.
struct ShardLocal {
    shard: usize,
    hosts: Vec<HostMonitors>,
    detections: Vec<Detection>,
    inbox: VecDeque<Envelope>,
    trace_seed: Option<u64>,
}

/// Stops the worker pool when the main thread leaves the tick loop,
/// normally or by a panic: the workers pass their start gate, see the
/// shutdown flag and exit, so the thread scope can join them instead
/// of waiting on a barrier they never pass.
struct StopWorkers<'a> {
    shutdown: &'a AtomicBool,
    start_gate: &'a Barrier,
}

impl Drop for StopWorkers<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.start_gate.wait();
    }
}

/// An event staged for the bus, with its publisher's causal context.
type Staged = (SecEvent, Option<TraceContext>);

/// The phase-1 publisher. It stages each shard's events in a plain
/// `Vec` and hands every shard to the bus with one lock at the end of
/// the phase, stamping seqs in staging order. Backpressure is decided
/// while staging, as publishing event by event would decide it: at tick
/// start a shard has room for `capacity − depth` events (an SLO alert
/// the previous tick left queued counts against it); once the room is
/// spent the shard is blocked and its later events defer, in order, to
/// the next tick.
struct Publisher<'b> {
    bus: &'b ShardedBus,
    room: Vec<usize>,
    staged: Vec<Vec<Staged>>,
    /// Events that met a blocked shard; re-published first next tick.
    deferred: VecDeque<Staged>,
    /// This tick's accepted events.
    published: u64,
    /// This tick's deferrals.
    deferrals: u64,
}

impl<'b> Publisher<'b> {
    fn new(bus: &'b ShardedBus) -> Self {
        let shards = bus.shard_count();
        Publisher {
            bus,
            room: vec![0; shards],
            staged: (0..shards).map(|_| Vec::new()).collect(),
            deferred: VecDeque::new(),
            published: 0,
            deferrals: 0,
        }
    }

    /// Opens a tick: measures each shard's room, then re-publishes the
    /// previous tick's deferred events first, so per-host order
    /// survives overload.
    fn begin_tick(&mut self) {
        for (shard, room) in self.room.iter_mut().enumerate() {
            *room = self.bus.capacity().saturating_sub(self.bus.depth(shard));
        }
        self.published = 0;
        self.deferrals = 0;
        for (event, trace) in std::mem::take(&mut self.deferred) {
            self.publish(event, trace);
        }
    }

    fn publish(&mut self, event: SecEvent, trace: Option<TraceContext>) {
        let shard = self.bus.shard_for(event.host());
        if self.room[shard] == 0 {
            self.deferrals += 1;
            self.deferred.push_back((event, trace));
        } else {
            self.room[shard] -= 1;
            self.published += 1;
            self.staged[shard].push((event, trace));
        }
    }

    /// Closes the phase: hands each shard's staged events to the bus and
    /// counts the tick's volumes.
    fn hand_off(&mut self, metrics: &SocMetrics) {
        for (shard, batch) in self.staged.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.bus.publish_batch(shard, batch);
                assert!(batch.is_empty(), "staging never exceeds a shard's room");
            }
        }
        metrics.events_published.add(self.published);
        metrics.events_deferred.add(self.deferrals);
    }
}

/// The engine: a catalogue plus a validated configuration.
pub struct SocEngine<'a, E> {
    catalog: &'a Catalog<E>,
    config: SocConfig,
    /// Parsed once; every host's TEARS monitor shares it.
    assertion: Option<Arc<GuardedAssertion>>,
}

impl<E> std::fmt::Debug for SocEngine<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocEngine")
            .field("catalog_rules", &self.catalog.len())
            .field("config", &self.config)
            .field("assertion", &self.assertion)
            .finish()
    }
}

impl<'a, E: SocHost> SocEngine<'a, E> {
    /// Validates `config` and builds the engine.
    ///
    /// # Errors
    /// When [`SocConfig::validate`] rejects `config`, or on an
    /// unparseable assertion.
    pub fn new(catalog: &'a Catalog<E>, config: SocConfig) -> Result<Self, SocConfigError> {
        config.validate()?;
        let assertion = match &config.tears_assertion {
            Some(src) => {
                Some(Arc::new(GuardedAssertion::parse(src).map_err(|e| {
                    SocConfigError::InvalidAssertion(e.to_string())
                })?))
            }
            None => None,
        };
        Ok(SocEngine {
            catalog,
            config,
            assertion,
        })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Runs the engine over `hosts`, mutating them in place (drift and
    /// remediation), and reports incidents plus metrics.
    pub fn run(&self, hosts: &mut [E]) -> SocReport {
        self.run_traced(hosts, &SocMetrics::new(), &SocTracing::disabled())
    }

    /// Like [`run`](Self::run), but records into caller-owned
    /// instruments and adds causal tracing. `metrics` may be
    /// [`SocMetrics::in_registry`], to surface the run in a unified
    /// [`vdo_obs`] snapshot, or [`SocMetrics::disabled`], the no-op
    /// recorder (experiment E12 measures that overhead at under 5%);
    /// the returned report snapshots whatever the instruments captured.
    /// Under tracing, requirement roots are journalled at tick 0, every
    /// detection/remediation step emits a journal event chained to the
    /// requirement's [`TraceContext`], bus envelopes carry their
    /// publisher's context, and an optional [`SloPolicy`] evaluates
    /// burn-rate rules in-run. [`SocTracing::disabled`] journals
    /// nothing; experiment E14 measures the enabled overhead. Journal events are emitted from the main
    /// thread with purely derived contents, so equal-seed runs produce
    /// identical journal fingerprints at any worker count.
    pub fn run_traced(
        &self,
        hosts: &mut [E],
        metrics: &SocMetrics,
        tracing: &SocTracing,
    ) -> SocReport {
        let cfg = &self.config;
        let journal = &tracing.journal;
        let tracing_on = journal.is_enabled();
        let trace_seed = tracing_on.then_some(tracing.trace_seed);
        if tracing_on {
            // Requirement ingestion: one root per monitored artifact.
            // Incident traces minted later resolve back to these.
            for entry in self.catalog.iter() {
                let id = entry.spec().finding_id();
                journal.emit(
                    Event::info("requirement.ingested")
                        .trace(TraceContext::root(tracing.trace_seed, id))
                        .field("rule", id),
                );
            }
            if let Some(ga) = &self.assertion {
                journal.emit(
                    Event::info("requirement.ingested")
                        .trace(TraceContext::root(tracing.trace_seed, ga.name()))
                        .field("rule", ga.name()),
                );
            }
        }
        let n_hosts = hosts.len();
        let bus = ShardedBus::new(cfg.shards, cfg.queue_capacity);
        let mut shard_locals: Vec<ShardLocal> = (0..cfg.shards)
            .map(|shard| ShardLocal {
                shard,
                hosts: Vec::new(),
                detections: Vec::new(),
                inbox: VecDeque::new(),
                trace_seed,
            })
            .collect();
        // Host→slot table, built once per run and read by every worker:
        // host `h` lives at `hosts[slots[h]]` of shard `shard_for(h)`.
        let slots: Vec<usize> = (0..n_hosts)
            .map(|host| {
                let local = &mut shard_locals[bus.shard_for(host)];
                local.hosts.push(HostMonitors::new(self.assertion.clone()));
                local.hosts.len() - 1
            })
            .collect();
        let shard_states: Vec<Mutex<ShardLocal>> =
            shard_locals.into_iter().map(Mutex::new).collect();
        let fleet = RwLock::new(hosts);
        let locals: Vec<Worker<Batch>> = (0..cfg.workers).map(|_| Worker::new_fifo()).collect();
        let queues = TaskQueues::new(&locals, cfg.shards);
        let outstanding = AtomicUsize::new(0);
        let current_tick = AtomicU64::new(0);
        let shutdown = AtomicBool::new(false);
        let start_gate = Barrier::new(cfg.workers + 1);
        let end_gate = Barrier::new(cfg.workers + 1);
        let wall_start = Instant::now();

        let mut incidents: Vec<SocIncident> = Vec::new();
        let mut open: Vec<OpenRules> = vec![OpenRules::new(); n_hosts];
        let mut dispatcher = Dispatcher::new(cfg.remediation, cfg.seed ^ 0x0D15_EA5E);
        let planner = RemediationPlanner::default();
        let mut drift_events = 0u64;
        let mut noncompliant_host_ticks = 0u64;
        let mut fleet_trace = Trace::new();
        let mut live_slo = tracing
            .slo
            .as_ref()
            .filter(|_| tracing_on)
            .map(|p| LiveSloEngine::new(tracing.trace_seed, p.rules.clone()));
        let mut slo_alerts: Vec<SloAlert> = Vec::new();

        std::thread::scope(|scope| {
            for (me, local) in locals.into_iter().enumerate() {
                let bus = &bus;
                let shard_states = &shard_states;
                let slots = &slots[..];
                let queues = &queues;
                let fleet = &fleet;
                let outstanding = &outstanding;
                let current_tick = &current_tick;
                let shutdown = &shutdown;
                let start_gate = &start_gate;
                let end_gate = &end_gate;
                let catalog = self.catalog;
                let io_latency = cfg.io_latency;
                scope.spawn(move || loop {
                    start_gate.wait();
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let now = current_tick.load(Ordering::SeqCst);
                    loop {
                        match queues.find(me, &local) {
                            Some((batch, src)) => {
                                if src == TaskSource::Stolen {
                                    metrics.steals.inc();
                                }
                                let t0 = Instant::now();
                                {
                                    let fleet_guard = fleet.read();
                                    let mut state = shard_states[batch.shard].lock();
                                    process_batch(
                                        now,
                                        bus,
                                        catalog,
                                        &fleet_guard[..],
                                        slots,
                                        &mut state,
                                        metrics,
                                    );
                                }
                                if io_latency > Duration::ZERO {
                                    std::thread::sleep(io_latency);
                                }
                                metrics.batch_micros.record(t0.elapsed().as_micros() as u64);
                                metrics.batches.inc();
                                outstanding.fetch_sub(1, Ordering::SeqCst);
                            }
                            None => {
                                if outstanding.load(Ordering::SeqCst) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    end_gate.wait();
                });
            }

            let _stop = StopWorkers {
                shutdown: &shutdown,
                start_gate: &start_gate,
            };
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut drifter = DriftInjector::new(cfg.seed.wrapping_mul(31).wrapping_add(7));
            // Hoisted out of the drift loop: the per-event context is a
            // child of this fixed root, so only the cheap child
            // derivation runs per drift event.
            let drift_root = trace_seed.map(|s| TraceContext::root(s, "drift"));
            // Telemetry roots (one per host, minted once): the signal
            // firehose journals as children of these, so tail-sampling
            // can drop a quiet host's whole stream by one decision.
            // Only minted when the journal's severity floor admits
            // `Debug` — at operational floors the firehose would be
            // rejected per event, so skip building it entirely.
            let telemetry_roots: Vec<TraceContext> = match (trace_seed, &self.assertion) {
                (Some(s), Some(_)) if journal.accepts(Severity::Debug) => (0..n_hosts)
                    .map(|h| TraceContext::root(s, &format!("telemetry:{h}")))
                    .collect(),
                _ => Vec::new(),
            };
            let mut publisher = Publisher::new(&bus);
            // Tick a brute-force burst started on, per host (telemetry).
            let mut attack_since: Vec<Option<u64>> = vec![None; n_hosts];

            for tick in 0..cfg.duration {
                current_tick.store(tick, Ordering::SeqCst);
                // --- Phase 1 (main): publish ------------------------
                publisher.begin_tick();
                if tick == 0 {
                    // Baseline audit: surface pre-existing violations.
                    for host in 0..n_hosts {
                        publisher.publish(
                            SecEvent::ConfigChanged {
                                host,
                                tick,
                                detail: "baseline audit".to_string(),
                            },
                            trace_seed.map(|s| {
                                TraceContext::root(s, "audit").child_u64("host", host as u64)
                            }),
                        );
                    }
                }
                {
                    let mut guard = fleet.write();
                    for host in 0..n_hosts {
                        if rng.gen_bool(cfg.drift_rate) {
                            for ev in guard[host].apply_drift(&mut drifter, 1) {
                                drift_events += 1;
                                let ctx = drift_root.map(|r| {
                                    r.child_u64("host", host as u64).child_u64("tick", tick)
                                });
                                if tracing_on {
                                    let mut jev = Event::debug("soc.drift")
                                        .at(tick)
                                        .field("host", host)
                                        .field("detail", ev.detail.as_str());
                                    if let Some(t) = ctx {
                                        jev = jev.trace(t);
                                    }
                                    journal.emit(jev);
                                }
                                publisher.publish(
                                    SecEvent::DriftApplied {
                                        host,
                                        tick,
                                        kind: ev.kind,
                                        detail: ev.detail,
                                    },
                                    ctx,
                                );
                            }
                        }
                    }
                }
                if self.assertion.is_some() {
                    for host in 0..n_hosts {
                        let burst = rng.gen_bool(cfg.attack_rate);
                        let mut failed_logins = 0.0;
                        let mut lockout = 0.0;
                        if burst {
                            failed_logins = 4.0;
                            attack_since[host] = Some(tick);
                        } else if let Some(t0) = attack_since[host] {
                            // A compliant host answers the burst with a
                            // lockout; a drifted one has lost the
                            // mechanism and stays silent.
                            if open[host].is_empty() {
                                lockout = 1.0;
                                attack_since[host] = None;
                            } else if tick.saturating_sub(t0) > 3 {
                                attack_since[host] = None;
                            }
                        }
                        if let Some(root) = telemetry_roots.get(host) {
                            // The per-host telemetry stream is Debug
                            // noise until an incident makes it evidence
                            // — exactly what adaptive tail-sampling is
                            // for.
                            journal.emit(
                                Event::debug("soc.signal")
                                    .at(tick)
                                    .trace(root.child_u64("sig", tick))
                                    .field("host", host)
                                    .field("failed_logins", failed_logins)
                                    .field("lockout", lockout),
                            );
                        }
                        publisher.publish(
                            SecEvent::SignalTick {
                                host,
                                tick,
                                signals: [("failed_logins", failed_logins), ("lockout", lockout)],
                            },
                            None,
                        );
                    }
                }
                publisher.hand_off(metrics);

                // --- Phase 2 (workers): process to quiescence --------
                let mut n_batches = 0usize;
                for shard in 0..cfg.shards {
                    let depth = bus.depth(shard);
                    if depth > 0 {
                        metrics.observe_queue_depth(depth as u64);
                        queues.push(Batch { shard });
                        n_batches += 1;
                    }
                }
                outstanding.store(n_batches, Ordering::SeqCst);
                start_gate.wait();
                end_gate.wait();

                // --- Phase 3 (main): merge detections, remediate -----
                let mut detections: Vec<Detection> = Vec::new();
                for state in &shard_states {
                    detections.append(&mut state.lock().detections);
                }
                detections.sort();
                for det in detections {
                    match det.kind {
                        DetectionKind::Tears => {
                            if tracing_on {
                                let mut ev = Event::warn("soc.tears_violation")
                                    .at(tick)
                                    .field("host", det.host)
                                    .field("rule", det.rule.as_str())
                                    .field("activated_at", det.introduced_at);
                                if let Some(t) = det.trace {
                                    ev = ev.trace(t);
                                }
                                journal.emit(ev);
                            }
                            incidents.push(SocIncident {
                                host: det.host,
                                rule: det.rule,
                                kind: DetectionKind::Tears,
                                introduced_at: det.introduced_at,
                                detected_at: det.detected_at,
                                resolved_at: None,
                                attempts: 0,
                                trace: det.trace,
                            });
                        }
                        DetectionKind::Stig => {
                            if open[det.host].contains_key(&det.rule) {
                                continue; // already being remediated
                            }
                            let latency = det.detected_at - det.introduced_at;
                            // The exemplar links the latency bucket to
                            // the incident's causal chain.
                            match det.trace {
                                Some(t) => metrics
                                    .detection_latency
                                    .record_traced(latency, t.trace_id.0),
                                None => metrics.detection_latency.record(latency),
                            }
                            if let Some(live) = live_slo.as_mut() {
                                live.observe_value("soc.detection_latency", tick, latency);
                            }
                            if tracing_on {
                                let mut ev = Event::warn("soc.detection")
                                    .at(tick)
                                    .field("host", det.host)
                                    .field("rule", det.rule.as_str())
                                    .field("latency", det.detected_at - det.introduced_at);
                                if let Some(t) = det.trace {
                                    ev = ev.trace(t);
                                }
                                journal.emit(ev);
                            }
                            open[det.host].insert(det.rule.clone(), incidents.len());
                            dispatcher.schedule(
                                tick,
                                RemediationTask {
                                    host: det.host,
                                    rule: det.rule.clone(),
                                    introduced_at: det.introduced_at,
                                    detected_at: det.detected_at,
                                    attempt: 0,
                                    trace: det.trace,
                                },
                            );
                            incidents.push(SocIncident {
                                host: det.host,
                                rule: det.rule,
                                kind: DetectionKind::Stig,
                                introduced_at: det.introduced_at,
                                detected_at: det.detected_at,
                                resolved_at: None,
                                attempts: 0,
                                trace: det.trace,
                            });
                        }
                    }
                }
                for task in dispatcher.take_due(tick) {
                    let Some(&incident_idx) = open[task.host].get(&task.rule) else {
                        continue; // repaired as a side effect earlier
                    };
                    incidents[incident_idx].attempts += 1;
                    let attempt_trace = task
                        .trace
                        .map(|t| t.child_u64("attempt", u64::from(task.attempt)));
                    if tracing_on {
                        let mut ev = Event::info("soc.remediation.attempt")
                            .at(tick)
                            .field("host", task.host)
                            .field("rule", task.rule.as_str())
                            .field("attempt", u64::from(task.attempt));
                        if let Some(t) = attempt_trace {
                            ev = ev.trace(t);
                        }
                        journal.emit(ev);
                    }
                    if !dispatcher.fault_injected(&task) {
                        let verdicts =
                            planner.remediate(self.catalog, &mut fleet.write()[task.host]);
                        metrics.remediations.inc();
                        // The planner's closing re-check is this
                        // remediation's check of the whole catalogue.
                        metrics.checks_run.add(self.catalog.len() as u64);
                        if let Some(live) = live_slo.as_mut() {
                            live.incr("soc.remediations", tick, 1);
                            live.incr("soc.checks_run", tick, self.catalog.len() as u64);
                        }
                        let host_open = &mut open[task.host];
                        for (entry, status) in self.catalog.iter().zip(verdicts) {
                            if status.is_pass() {
                                if let Some(idx) = host_open.remove(entry.spec().finding_id()) {
                                    incidents[idx].resolved_at = Some(tick);
                                    if tracing_on {
                                        let mut ev = Event::info("soc.remediation.resolved")
                                            .at(tick)
                                            .field("host", incidents[idx].host)
                                            .field("rule", incidents[idx].rule.as_str());
                                        if let Some(t) = incidents[idx].trace {
                                            ev = ev.trace(t.child_u64("resolve", tick));
                                        }
                                        journal.emit(ev);
                                    }
                                }
                            }
                        }
                        if !host_open.contains_key(&task.rule) {
                            continue;
                        }
                    }
                    // An injected fault, or a run that left the task's
                    // own rule failing: either way the attempt failed.
                    fail_attempt(
                        &mut dispatcher,
                        task,
                        tick,
                        attempt_trace,
                        metrics,
                        live_slo.as_mut(),
                        journal,
                    );
                }

                // --- Phase 4 (main): accounting + SLO evaluation -----
                let broken = open.iter().filter(|rules| !rules.is_empty()).count() as u64;
                noncompliant_host_ticks += broken;
                fleet_trace.push(broken == 0);
                if let (Some(policy), Some(live)) = (&tracing.slo, live_slo.as_mut()) {
                    // Drain this tick's publish volumes into the
                    // streaming windows, then evaluate on cadence.
                    live.incr("soc.events_published", tick, publisher.published);
                    live.incr("soc.events_deferred", tick, publisher.deferrals);
                    if n_hosts > 0 && policy.period > 0 && (tick + 1) % policy.period == 0 {
                        for alert in live.end_tick(tick, journal) {
                            // Alerts close the loop: each one triggers a
                            // re-audit of a representative host on the
                            // next tick.
                            let event = SecEvent::SloAlert {
                                host: 0,
                                tick,
                                rule: alert.rule.clone(),
                            };
                            let trace = Some(alert.trace);
                            match bus.publish_traced(event, trace) {
                                Ok(_) => {
                                    metrics.events_published.inc();
                                }
                                Err(PublishError::Backpressure(event)) => {
                                    metrics.events_deferred.inc();
                                    publisher.deferred.push_back((event, trace));
                                }
                            }
                            slo_alerts.push(alert);
                        }
                    }
                }
            }
        });

        SocReport {
            incidents,
            dead_letters: dispatcher.into_dead_letters(),
            drift_events,
            noncompliant_host_ticks,
            duration: cfg.duration,
            fleet_compliance_trace: fleet_trace,
            slo_alerts,
            metrics: metrics.snapshot(wall_start.elapsed().as_secs_f64()),
        }
    }
}

/// Records a failed remediation attempt — an injected fault, or a
/// planner run that left the task's own rule failing. The dispatcher
/// reschedules the task with backoff or dead-letters it once its retries
/// are spent; the counters, the live SLO signals and the journal record
/// which.
fn fail_attempt(
    dispatcher: &mut Dispatcher,
    task: RemediationTask,
    tick: u64,
    attempt_trace: Option<TraceContext>,
    metrics: &SocMetrics,
    live_slo: Option<&mut LiveSloEngine>,
    journal: &Journal,
) {
    let fields = journal.is_enabled().then(|| (task.host, task.rule.clone()));
    let retried = dispatcher.on_failure(task, tick);
    let (counter, signal) = if retried {
        (&metrics.retries, "soc.retries")
    } else {
        (&metrics.dead_letters, "soc.dead_letters")
    };
    counter.inc();
    if let Some(live) = live_slo {
        live.incr(signal, tick, 1);
    }
    if let Some((host, rule)) = fields {
        let ev = if retried {
            Event::warn("soc.remediation.retry")
        } else {
            Event::error("soc.remediation.dead_letter")
        };
        let mut ev = ev.at(tick).field("host", host).field("rule", rule);
        if let Some(t) = attempt_trace {
            ev = ev.trace(t);
        }
        journal.emit(ev);
    }
}

/// Takes the shard's whole queue and runs every event through the
/// monitors, found through the run's host→slot table. Called by exactly
/// one worker per tick per shard, with the fleet read-locked (hosts are
/// immutable during the processing phase).
fn process_batch<E: SocHost>(
    now: u64,
    bus: &ShardedBus,
    catalog: &Catalog<E>,
    fleet: &[E],
    slots: &[usize],
    state: &mut ShardLocal,
    metrics: &SocMetrics,
) {
    let mut inbox = std::mem::take(&mut state.inbox);
    bus.take_all(state.shard, &mut inbox);
    let mut processed = 0u64;
    let mut checks = 0u64;
    for envelope in inbox.drain(..) {
        processed += 1;
        let seq = envelope.seq;
        match envelope.event {
            SecEvent::DriftApplied { host, tick, .. }
            | SecEvent::ConfigChanged { host, tick, .. }
            | SecEvent::SloAlert { host, tick, .. } => {
                // Re-check the catalogue and deliver each result as a
                // follow-up CheckResult event (local delivery: same
                // shard, same worker, so order is preserved and the
                // batch quiesces without re-entering the bounded
                // queue).
                let results = catalog.check_all(&fleet[host]);
                checks += catalog.len() as u64;
                processed += results.len() as u64;
                for (entry, status) in results {
                    let event = SecEvent::CheckResult {
                        host,
                        tick,
                        rule: entry.spec().finding_id().to_string(),
                        status,
                    };
                    state.check_result(slots, seq, now, event);
                }
            }
            event @ SecEvent::CheckResult { .. } => state.check_result(slots, seq, now, event),
            SecEvent::SignalTick { host, signals, .. } => {
                let ShardLocal {
                    shard,
                    hosts,
                    detections,
                    trace_seed,
                    ..
                } = state;
                if let Some(tears) = &mut hosts[slots[host]].tears {
                    for activation in tears.observe(&signals) {
                        detections.push(Detection {
                            shard: *shard,
                            seq,
                            host,
                            rule: tears.name().to_string(),
                            kind: DetectionKind::Tears,
                            introduced_at: activation,
                            detected_at: now,
                            trace: trace_seed.map(|s| {
                                TraceContext::root(s, tears.name())
                                    .child_u64("host", host as u64)
                                    .child_u64("detect", now)
                            }),
                        });
                    }
                }
            }
        }
    }
    state.inbox = inbox;
    metrics.events_processed.add(processed);
    metrics.checks_run.add(checks);
}

impl ShardLocal {
    /// Feeds one `CheckResult` into the host's temporal compliance
    /// monitor and records a detection when the rule fails. The
    /// detection's trace is minted as a child of the *requirement root*
    /// — a pure function of `(trace_seed, rule, host, tick)` — so any
    /// worker derives the same context and the incident chain resolves
    /// to the catalogue rule.
    fn check_result(&mut self, slots: &[usize], seq: u64, now: u64, event: SecEvent) {
        let SecEvent::CheckResult {
            host,
            tick,
            rule,
            status,
        } = event
        else {
            unreachable!("only CheckResult events reach this handler");
        };
        self.hosts[slots[host]]
            .compliance
            .observe(&!status.is_fail());
        if status == CheckStatus::Fail {
            let trace = self.trace_seed.map(|s| {
                TraceContext::root(s, &rule)
                    .child_u64("host", host as u64)
                    .child_u64("detect", now)
            });
            self.detections.push(Detection {
                shard: self.shard,
                seq,
                host,
                rule,
                kind: DetectionKind::Stig,
                introduced_at: tick,
                detected_at: now,
                trace,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_core::RemediationPlanner;
    use vdo_host::{UnixHost, WindowsHost};
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

    fn base_config() -> SocConfig {
        SocConfig {
            duration: 300,
            drift_rate: 0.05,
            workers: 2,
            shards: 4,
            seed: 11,
            ..SocConfig::default()
        }
    }

    #[test]
    fn zero_sizes_are_recoverable_errors() {
        let catalog = ubuntu::catalog();
        for (cfg, want) in [
            (
                SocConfig {
                    workers: 0,
                    ..SocConfig::default()
                },
                SocConfigError::ZeroWorkers,
            ),
            (
                SocConfig {
                    shards: 0,
                    ..SocConfig::default()
                },
                SocConfigError::ZeroShards,
            ),
            (
                SocConfig {
                    queue_capacity: 0,
                    ..SocConfig::default()
                },
                SocConfigError::ZeroQueueCapacity,
            ),
        ] {
            assert_eq!(SocEngine::new(&catalog, cfg).unwrap_err(), want);
        }
        let bad = SocConfig {
            tears_assertion: Some("not a guarded assertion".into()),
            ..SocConfig::default()
        };
        assert!(matches!(
            SocEngine::new(&catalog, bad).unwrap_err(),
            SocConfigError::InvalidAssertion(_)
        ));
    }

    #[test]
    fn out_of_range_rates_are_recoverable_errors() {
        let catalog = ubuntu::catalog();
        for rate in [-0.1, 1.5, f64::NAN] {
            let faulty = RemediationConfig {
                fault_rate: rate,
                ..RemediationConfig::default()
            };
            for (cfg, field) in [
                (
                    SocConfig {
                        drift_rate: rate,
                        ..SocConfig::default()
                    },
                    "drift_rate",
                ),
                (
                    SocConfig {
                        attack_rate: rate,
                        ..SocConfig::default()
                    },
                    "attack_rate",
                ),
                (
                    SocConfig {
                        remediation: faulty,
                        ..SocConfig::default()
                    },
                    "remediation.fault_rate",
                ),
            ] {
                let err = SocEngine::new(&catalog, cfg).unwrap_err();
                assert!(
                    matches!(err, SocConfigError::InvalidRate { field: f, .. } if f == field),
                    "{field}={rate}: {err}"
                );
            }
        }
    }

    #[test]
    fn drift_is_detected_with_zero_tick_latency() {
        let catalog = ubuntu::catalog();
        let engine = SocEngine::new(&catalog, base_config()).unwrap();
        let mut fleet = compliant_fleet(6);
        let report = engine.run(&mut fleet);
        assert!(report.drift_events > 0);
        let stig: Vec<_> = report
            .incidents
            .iter()
            .filter(|i| i.kind == DetectionKind::Stig)
            .collect();
        assert!(!stig.is_empty(), "5% drift over 300 ticks must break rules");
        assert!(
            stig.iter().all(|i| i.latency() == 0),
            "event-driven detection happens on the drift tick"
        );
        assert!(
            stig.iter().all(|i| i.resolved_at.is_some()),
            "fault-free remediation closes every incident"
        );
    }

    #[test]
    fn single_worker_runs_are_byte_identical() {
        let catalog = ubuntu::catalog();
        let cfg = SocConfig {
            workers: 1,
            ..base_config()
        };
        let run = |cfg: &SocConfig| {
            let engine = SocEngine::new(&catalog, cfg.clone()).unwrap();
            let mut fleet = compliant_fleet(8);
            engine.run(&mut fleet).incident_log()
        };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn worker_count_does_not_change_the_incident_log() {
        let catalog = ubuntu::catalog();
        let logs: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&workers| {
                let cfg = SocConfig {
                    workers,
                    tears_assertion: Some(
                        r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#
                            .into(),
                    ),
                    remediation: RemediationConfig {
                        fault_rate: 0.3,
                        ..RemediationConfig::default()
                    },
                    ..base_config()
                };
                let engine = SocEngine::new(&catalog, cfg).unwrap();
                let mut fleet = compliant_fleet(8);
                engine.run(&mut fleet).incident_log()
            })
            .collect();
        assert!(
            logs.windows(2).all(|w| w[0] == w[1]),
            "incident log must be independent of worker count"
        );
    }

    #[test]
    fn injected_faults_retry_and_dead_letter() {
        let catalog = ubuntu::catalog();
        let cfg = SocConfig {
            remediation: RemediationConfig {
                max_retries: 2,
                backoff_base: 1,
                fault_rate: 1.0,
            },
            ..base_config()
        };
        let engine = SocEngine::new(&catalog, cfg).unwrap();
        let mut fleet = compliant_fleet(4);
        let report = engine.run(&mut fleet);
        assert!(report.metrics.retries > 0);
        assert!(!report.dead_letters.is_empty(), "all attempts fail");
        assert!(
            report.dead_letters.iter().all(|d| d.task.attempt == 3),
            "1 initial + 2 retries before giving up"
        );
        assert!(
            report
                .incidents
                .iter()
                .filter(|i| i.kind == DetectionKind::Stig)
                .all(|i| i.resolved_at.is_none()),
            "nothing resolves when every attempt faults"
        );
    }

    #[test]
    fn tears_violations_fire_only_on_drifted_hosts() {
        let catalog = ubuntu::catalog();
        let cfg = SocConfig {
            duration: 400,
            drift_rate: 0.03,
            attack_rate: 0.05,
            tears_assertion: Some(
                r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
            ),
            remediation: RemediationConfig {
                fault_rate: 0.8,
                max_retries: 5,
                backoff_base: 4,
            },
            ..base_config()
        };
        let engine = SocEngine::new(&catalog, cfg).unwrap();
        let mut fleet = compliant_fleet(8);
        let report = engine.run(&mut fleet);
        let tears: Vec<_> = report
            .incidents
            .iter()
            .filter(|i| i.kind == DetectionKind::Tears)
            .collect();
        assert!(
            !tears.is_empty(),
            "slow remediation leaves attack windows unanswered"
        );
        assert_eq!(report.fleet_compliance_trace.len(), 400);
    }

    #[test]
    fn traced_incidents_resolve_to_requirement_roots() {
        let catalog = ubuntu::catalog();
        let engine = SocEngine::new(&catalog, base_config()).unwrap();
        let mut fleet = compliant_fleet(6);
        let journal = Journal::new();
        let tracing = SocTracing::new(journal.clone(), 11);
        let report = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
        assert!(!report.incidents.is_empty());
        let snap = journal.snapshot();
        for inc in &report.incidents {
            let ctx = inc.trace.expect("traced runs stamp every incident");
            assert_eq!(
                ctx.trace_id,
                TraceContext::root(11, &inc.rule).trace_id,
                "incident trace must be rooted at its requirement"
            );
            let root = snap
                .root_event(ctx.trace_id)
                .expect("requirement root event journalled");
            assert_eq!(root.name, "requirement.ingested");
        }
        assert!(!snap.events_named("soc.detection").is_empty());
        assert!(!snap.events_named("soc.remediation.resolved").is_empty());
    }

    #[test]
    fn persistent_tracing_leaves_a_readable_columnar_record() {
        let dir = std::env::temp_dir().join(format!("vdo-soc-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = ubuntu::catalog();
        let engine = SocEngine::new(&catalog, base_config()).unwrap();
        let mut fleet = compliant_fleet(6);
        let tracing =
            SocTracing::persistent(&dir, 11, vdo_trace::JournalConfig::default()).unwrap();
        let report = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
        assert!(!report.incidents.is_empty());
        tracing.journal.sync();
        let disk = vdo_trace::JournalDir::open(&dir).unwrap();
        assert_eq!(disk.header().unwrap(), "vdo-journal v1\nsource=soc\n");
        assert_eq!(
            disk.event_count().unwrap(),
            tracing.journal.accepted(),
            "the durable stream holds every accepted event"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_tracing_is_byte_identical_to_untraced() {
        let catalog = ubuntu::catalog();
        let engine = SocEngine::new(&catalog, base_config()).unwrap();
        let mut a = compliant_fleet(6);
        let mut b = compliant_fleet(6);
        let untraced = engine.run(&mut a);
        let disabled = engine.run_traced(&mut b, &SocMetrics::new(), &SocTracing::disabled());
        assert_eq!(untraced.incident_log(), disabled.incident_log());
        assert!(disabled.incidents.iter().all(|i| i.trace.is_none()));
        assert!(disabled.slo_alerts.is_empty());
    }

    #[test]
    fn traced_journal_fingerprints_are_worker_count_invariant() {
        let catalog = ubuntu::catalog();
        let prints: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&workers| {
                let cfg = SocConfig {
                    workers,
                    ..base_config()
                };
                let engine = SocEngine::new(&catalog, cfg).unwrap();
                let mut fleet = compliant_fleet(8);
                let journal = Journal::new();
                let tracing = SocTracing::new(journal.clone(), 5);
                engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
                journal.snapshot().fingerprint()
            })
            .collect();
        assert!(
            prints.windows(2).all(|w| w[0] == w[1]),
            "journal fingerprint must be independent of worker count"
        );
    }

    #[test]
    fn slo_policy_alerts_and_feeds_the_bus() {
        let catalog = ubuntu::catalog();
        let cfg = SocConfig {
            drift_rate: 0.3,
            ..base_config()
        };
        let engine = SocEngine::new(&catalog, cfg).unwrap();
        let mut fleet = compliant_fleet(6);
        let metrics = SocMetrics::new();
        let journal = Journal::new();
        let tracing = SocTracing {
            journal: journal.clone(),
            trace_seed: 11,
            slo: Some(SloPolicy {
                rules: vec![BurnRateRule {
                    name: "event-volume".into(),
                    signal: vdo_trace::SloSignal::CounterRatio {
                        bad: "soc.events_published".into(),
                        total: "soc.events_published".into(),
                    },
                    objective: 0.5,
                    long_window: 20,
                    short_window: 5,
                    factor: 1.0,
                }],
                period: 5,
            }),
        };
        let report = engine.run_traced(&mut fleet, &metrics, &tracing);
        assert!(
            !report.slo_alerts.is_empty(),
            "a saturated bad-ratio must breach the budget"
        );
        let snap = journal.snapshot();
        assert_eq!(
            snap.events_named("slo.alert").len(),
            report.slo_alerts.len(),
            "every alert is journalled"
        );
        assert!(
            report.slo_alerts[0].trace.is_root() || report.slo_alerts[0].trace.parent.is_some()
        );
    }

    #[test]
    fn quiet_fleet_stays_clean() {
        let catalog = ubuntu::catalog();
        let cfg = SocConfig {
            drift_rate: 0.0,
            ..base_config()
        };
        let engine = SocEngine::new(&catalog, cfg).unwrap();
        let mut fleet = compliant_fleet(5);
        let report = engine.run(&mut fleet);
        assert!(report.incidents.is_empty());
        assert_eq!(report.noncompliant_host_ticks, 0);
        assert_eq!(report.exposure(5), 0.0);
        // The baseline audit still ran every rule once per host.
        assert!(report.metrics.checks_run >= 5 * catalog.len() as u64);
    }

    #[test]
    fn windows_fleets_are_supported() {
        let catalog = vdo_stigs::win10::catalog();
        let planner = RemediationPlanner::default();
        let mut fleet: Vec<WindowsHost> = (0..4)
            .map(|_| {
                let mut h = WindowsHost::baseline_win10();
                planner.run(&catalog, &mut h);
                h
            })
            .collect();
        let engine = SocEngine::new(&catalog, base_config()).unwrap();
        let report = engine.run(&mut fleet);
        assert!(report.drift_events > 0);
        assert!(report
            .incidents
            .iter()
            .all(|i| i.kind == DetectionKind::Stig && i.latency() == 0));
    }
}
