//! The event-driven security-operations engine.
//!
//! One [`SocEngine::run`] simulates `duration` ticks over a fleet. The
//! unit of ownership is the bus shard: hosts route to shards by a fixed
//! hash ([`shard_of`]), and each shard owns its hosts, their monitors,
//! their open incidents, its event queue and sequence counter, and the
//! events backpressure deferred. A tick runs in up to three steps; the
//! two parallel ones are passes of the [`with_pool`] worker pool, and a
//! panic on a worker fails the run:
//!
//! 1. **advance** (worker pool, one item per shard with work; a lone
//!    busy shard runs on the main thread): the shard re-publishes the
//!    events deferred on earlier ticks, runs the baseline audit (tick
//!    0), draws each of its hosts' drift coin and applies the drift
//!    plan of each hit, and samples each host's telemetry (its burst
//!    coin drawn the same way). When the journal's floor admits
//!    `Debug`, the shard also builds each drift's `soc.drift` and each
//!    sample's `soc.signal` journal event, in slot (so host) order.
//!    Meanwhile the main thread journals the previous tick's events
//!    (see *Journal* below). Every accepted event gets the shard's
//!    next seq; a full queue defers the rest, in order, to the next
//!    tick. A telemetry sample is fed to the host's TEARS monitor on
//!    the spot (the monitor reads nothing else), and each drift write
//!    re-checks the rules it touched, so the re-check triggers that
//!    follow read verdicts that already see this tick's drift (see
//!    *Verdict cache* below).
//!    Under [`DetectionMode::Continuous`] every drift event is a
//!    re-check trigger, so a violation is detected on the tick it
//!    happens; under [`DetectionMode::Periodic`] drift triggers nothing
//!    and the scheduled audits find it, at `(period - 1) / 2` ticks of
//!    mean latency for a monitor of that period;
//! 2. **merge** (main thread): detections merge in `(shard, seq)`
//!    order — making the incident log independent of worker count and
//!    scheduling — into incidents and retry/backoff dispatcher tasks,
//!    each journal event appended to the tick's buffer;
//! 3. **remediate** (worker pool, only on ticks with due tasks): each
//!    shard runs its due tasks in dispatcher order — skipping one whose
//!    incident already closed, honouring its fault roll, calling
//!    [`RemediationPlanner::remediate_from`] on the host's cached
//!    verdicts and closing every rule the planner's final verdicts
//!    pass. A task whose own rule still fails failed,
//!    exactly as if a fault had been injected. The main thread then
//!    replays the outcomes in dispatcher order: attempts, journal
//!    events, retries, dead letters and live SLO signals, and publishes
//!    any SLO alert to host 0's shard (the alert's journal events join
//!    the buffer last).
//!
//! Journal: tick *t*'s events reach the journal during tick *t+1*'s
//! advance pass. Before that pass the main thread swaps every shard's
//! drift and signal logs out for emptied ones (no event moves); inside
//! the pass's `caller` closure ([`crate::runtime::Pool::pass`]) it
//! journals tick *t* as one [`Journal::emit_all`] batch: the drift
//! events, then the signal events, each merged into host order with one
//! cursor per shard, then the tick's buffer. Journalling thus overlaps
//! the workers' advance; after the last tick the main thread swaps and
//! journals once more. Only the main thread emits, in a fixed order, so
//! the journal — every seq, and every byte a sink writes — is the same
//! as if each event were emitted where it was built or buffered. A
//! disabled journal builds, buffers and journals nothing.
//!
//! Verdict cache: each shard keeps every host's last verdict per
//! catalogue rule. A drift write marks the rules that read the key it
//! writes ([`Catalog::mark_readers`]) and re-checks them on the spot,
//! and remediation writes the planner's final verdicts back, so at the
//! end of every tick the cache is exact — ground truth, whether or not a
//! trigger has looked yet. Per host it also keeps the tick each failing
//! rule started failing (a detection's `introduced_at`), and per shard
//! the count of hosts with a failing rule, which the exposure figures
//! (`noncompliant_host_ticks`, the compliance trace) sum. A trigger
//! serves its verdicts from the cache, yet still delivers every rule's
//! verdict to the compliance monitor and raises a detection for every
//! failing rule, so `checks_run`, `events_processed` and the incidents
//! are what a full re-check gives; `rules_evaluated` counts the
//! evaluations that ran. Debug builds assert after every re-check and
//! remediation that the cache equals a full check.
//!
//! Determinism: every random choice is a keyed draw, a pure hash of
//! `(seed, host, tick, purpose)` — a host's drift coin, the seed of its
//! drift plan ([`DriftInjector::plan`]) and its burst coin — and every
//! remediation fault roll a pure hash of `(seed, host, rule, attempt)`.
//! No draw comes from a shared stream, so a host's drift history is
//! fixed by the seed alone: the same at any fleet size, shard count or
//! worker count, and whoever its neighbours are. With a fixed seed the
//! incident log, the journal and the counters are byte-identical across
//! runs *and across worker counts*, because host→shard routing is a
//! fixed hash, one shard is advanced or remediated by exactly one thread
//! at a time, and the detection merge is totally ordered.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use vdo_core::{Catalog, CheckStatus, RemediationPlanner, RuleSet};
use vdo_host::{DriftInjector, HostWrite};
use vdo_obs::hash::{chance, mix64};
use vdo_tears::GuardedAssertion;
use vdo_temporal::{PatternMonitor, Trace};
use vdo_trace::{BurnRateRule, Event, Journal, LiveSloEngine, Severity, SloAlert, TraceContext};

use crate::event::{shard_of, HostId, SecEvent};
use crate::metrics::{MetricsSnapshot, SocMetrics};
use crate::monitors::{Detection, DetectionKind, HostMonitors};
use crate::remediation::{DeadLetter, Dispatcher, RemediationConfig, RemediationTask, SocIncident};
use crate::runtime::with_pool;

/// A host class the engine can operate: writable, so drift plans and
/// remediation can change it, and movable to the worker that owns its
/// shard.
///
/// Blanket-implemented for every [`HostWrite`] type, so owned host
/// structs and store-backed views all qualify with one definition.
pub trait SocHost: HostWrite + Send + Sync {}

impl<H: HostWrite + Send + Sync> SocHost for H {}

/// Engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Ticks to simulate.
    pub duration: u64,
    /// Per-host per-tick probability of one drift event.
    pub drift_rate: f64,
    /// Threads that run each pass, the calling thread included (must be
    /// >= 1).
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
    /// What triggers a host's re-check: every drift event, or a
    /// schedule.
    pub detection: DetectionMode,
}

/// How the engine finds drift. Either way drift is applied, sequenced
/// and counted, the verdict cache stays exact (see *Verdict cache*), a
/// detection goes through the same dispatcher, and TEARS telemetry and
/// SLO-alert re-audits work alike; only the re-check triggers differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionMode {
    /// Every drift event queues a re-check of its host, so a violation
    /// is detected on the tick it happens; a baseline audit of every
    /// host runs at tick 0.
    #[default]
    Continuous,
    /// Drift queues no re-check: each host is audited only on schedule
    /// — the paper's polling monitor and its manual audit. A monitor of
    /// period `p` pays about `(p - 1) / 2` ticks of mean detection
    /// latency.
    Periodic {
        /// Monitor period: every tick it divides, tick 0 included,
        /// audits every host. `None` runs no monitor; `Some(0)` is
        /// rejected.
        monitor: Option<u64>,
        /// Audit period: every nonzero tick it divides audits every
        /// host; 0 schedules no audit.
        audit: u64,
    },
}

impl DetectionMode {
    /// Whether a monitor watches the fleet at `tick`: every tick under
    /// `Continuous`, each monitor tick under `Periodic`. A detection
    /// made at any other tick came from a scheduled audit.
    #[must_use]
    pub fn monitors_at(self, tick: u64) -> bool {
        match self {
            DetectionMode::Continuous => true,
            DetectionMode::Periodic { monitor, .. } => {
                monitor.is_some_and(|p| tick.is_multiple_of(p))
            }
        }
    }

    /// Whether every host gets a scheduled-audit trigger at `tick`.
    fn audits_at(self, tick: u64) -> bool {
        match self {
            DetectionMode::Continuous => tick == 0,
            DetectionMode::Periodic { audit, .. } => {
                self.monitors_at(tick) || (tick > 0 && tick.is_multiple_of(audit))
            }
        }
    }
}

impl SocConfig {
    /// Checks the values the engine relies on: nonzero worker, shard
    /// and queue sizes and monitor period, and `drift_rate`,
    /// `attack_rate` and
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
        if let DetectionMode::Periodic {
            monitor: Some(0), ..
        } = self.detection
        {
            return Err(SocConfigError::ZeroMonitorPeriod);
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
            detection: DetectionMode::Continuous,
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
/// as [`SecEvent::SloAlert`] to host 0's shard queue (triggering a
/// re-audit — observability closing back into reaction).
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
    /// A periodic detection mode's monitor period was zero.
    ZeroMonitorPeriod,
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
            SocConfigError::ZeroMonitorPeriod => f.write_str("a monitor period must be at least 1"),
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
    /// Host-ticks that ended with at least one failing rule — ground
    /// truth, whether or not the failure was detected yet.
    pub noncompliant_host_ticks: u64,
    /// Ticks simulated.
    pub duration: u64,
    /// Per-tick "no host has a failing rule" bit, for post-hoc
    /// temporal evaluation.
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

/// Per-host violation ledger: open rule (catalogue index) -> incident
/// index.
type OpenRules = BTreeMap<usize, usize>;

/// What every pass reads and nothing writes while a run lasts.
struct RunCtx<'r, E> {
    catalog: &'r Catalog<E>,
    /// Catalogue indices in finding-id order: the order a re-check
    /// raises its detections in.
    detect_order: &'r [usize],
    planner: &'r RemediationPlanner,
    metrics: &'r SocMetrics,
    /// Host `h` sits at slot `slots[h]` of shard `shard_of(h)`.
    slots: &'r [usize],
    capacity: usize,
    io_latency: Duration,
    trace_seed: Option<u64>,
    /// A TEARS assertion is armed, so every host reports telemetry.
    telemetry: bool,
    /// Per host, the root its `soc.signal` journal events descend from;
    /// empty unless the journal's floor admits `Debug` and telemetry is
    /// on, so a shard builds the signal firehose only when it is kept.
    telemetry_roots: &'r [TraceContext],
    /// The root every `soc.drift` journal event descends from; `None`
    /// unless the journal's floor admits `Debug`.
    drift_root: Option<TraceContext>,
    detection: DetectionMode,
    /// Per-host per-tick rates, for the keyed draws.
    drift_rate: f64,
    attack_rate: f64,
}

/// What a keyed draw decides; part of its key.
#[derive(Clone, Copy)]
enum Draw {
    /// Whether the host drifts this tick.
    Drift = 1,
    /// The seed of that drift's [`DriftInjector::plan`].
    Plan = 2,
    /// Whether a brute-force burst hits the host's telemetry this tick.
    Burst = 3,
}

/// A keyed draw is a pure hash of `(seed, host, tick, purpose)`, as the
/// remediation fault rolls are, so a host's drift history depends on
/// nothing else — not on fleet size, shard count, neighbours or worker
/// count (counter-based random numbers, Salmon et al., SC 2011). It is
/// `mix64(host_key ^ tick_key)`: a shard derives each host's half once
/// per run and each purpose's tick half once per tick, so a draw costs
/// one mix.
fn keyed(host_key: u64, tick_key: u64) -> u64 {
    mix64(host_key ^ tick_key)
}

/// The host half of a keyed draw's key.
fn host_key(seed: u64, host: HostId) -> u64 {
    mix64(mix64(seed) ^ host as u64)
}

/// The tick half of a keyed draw's key.
fn tick_key(tick: u64, purpose: Draw) -> u64 {
    mix64(tick << 2 | purpose as u64)
}

/// What one due remediation task did on its shard.
enum Attempt {
    /// Its incident had closed (repaired as a side effect earlier), so
    /// no attempt was made.
    Closed,
    /// The attempt on incident `incident` met an injected fault.
    Faulted { incident: usize },
    /// The planner ran on the host. `resolved` lists the incidents its
    /// closing re-check closed, in catalogue order; `failed` is set when
    /// the task's own rule is still open.
    Ran {
        incident: usize,
        resolved: Vec<usize>,
        failed: bool,
    },
}

/// One bus shard and everything the engine keeps about its hosts. A
/// worker takes a shard for a whole pass; the main thread holds every
/// shard between passes.
struct Shard<'h, E> {
    shard: usize,
    /// The shard's hosts in ascending fleet order; a host's index here
    /// is its slot.
    hosts: Vec<&'h mut E>,
    /// Fleet index of each slot.
    ids: Vec<HostId>,
    /// Each slot's host half of its keyed draws.
    keys: Vec<u64>,
    monitors: Vec<HostMonitors>,
    /// Each slot's last verdict per catalogue rule: a full check of the
    /// host, but for the rules in `stale`.
    verdicts: Vec<Vec<CheckStatus>>,
    /// Per slot, the rules whose keys drift wrote since the slot's
    /// verdicts were last brought up to date.
    stale: Vec<RuleSet>,
    /// Open rules per slot.
    open: Vec<OpenRules>,
    /// Per slot, each failing rule and the tick it started failing: what
    /// a detection reports as `introduced_at`.
    failing_since: Vec<BTreeMap<usize, u64>>,
    /// Slots with a failing rule (a non-empty `failing_since`).
    failing: u64,
    /// Tick a brute-force burst started on, per slot.
    attack_since: Vec<Option<u64>>,
    /// Drift events applied to this shard's hosts so far.
    drift_events: u64,
    /// Due remediation tasks in dispatcher order, each with its
    /// position in the tick's due list and its fault roll.
    tasks: Vec<(usize, RemediationTask, bool)>,
    /// The same tasks back, with what running them did.
    outcomes: Vec<(usize, RemediationTask, Attempt)>,
    /// Next sequence number.
    seq: u64,
    /// Accepted re-check triggers awaiting the catalogue, each with its
    /// seq, behind any SLO alert the previous tick left queued.
    queue: VecDeque<(u64, SecEvent)>,
    /// Events that met a full queue; re-published first next tick, so
    /// per-host order survives overload.
    deferred: VecDeque<SecEvent>,
    /// Events the queue can still take this tick.
    room: usize,
    /// Events accepted this tick that are observed as they are
    /// sequenced and never queued — telemetry samples, and drift under
    /// [`DetectionMode::Periodic`] — but count toward the depth.
    observed: usize,
    /// Accepted events since the main thread last took the count.
    published: u64,
    /// Deferrals since the main thread last took the count.
    deferrals: u64,
    detections: Vec<Detection>,
    /// This tick's `soc.drift` journal events, in slot (so host) order.
    drift_log: Vec<(HostId, Event)>,
    /// This tick's `soc.signal` journal events, in slot (so host) order.
    signal_log: Vec<(HostId, Event)>,
}

impl<'h, E: SocHost> Shard<'h, E> {
    fn new(shard: usize) -> Self {
        Shard {
            shard,
            hosts: Vec::new(),
            ids: Vec::new(),
            keys: Vec::new(),
            monitors: Vec::new(),
            verdicts: Vec::new(),
            stale: Vec::new(),
            open: Vec::new(),
            failing_since: Vec::new(),
            failing: 0,
            attack_since: Vec::new(),
            drift_events: 0,
            tasks: Vec::new(),
            outcomes: Vec::new(),
            seq: 0,
            queue: VecDeque::new(),
            deferred: VecDeque::new(),
            room: 0,
            observed: 0,
            published: 0,
            deferrals: 0,
            detections: Vec::new(),
            drift_log: Vec::new(),
            signal_log: Vec::new(),
        }
    }

    /// Takes `host` (fleet index `id`, keyed draws from `seed`) into the
    /// next slot, with every one of the catalogue's `rules` stale.
    fn admit(
        &mut self,
        id: HostId,
        seed: u64,
        host: &'h mut E,
        monitors: HostMonitors,
        rules: usize,
    ) {
        self.hosts.push(host);
        self.ids.push(id);
        self.keys.push(host_key(seed, id));
        self.monitors.push(monitors);
        self.verdicts.push(vec![CheckStatus::Pass; rules]);
        self.stale.push(RuleSet::all(rules));
        self.open.push(OpenRules::new());
        self.failing_since.push(BTreeMap::new());
        self.attack_since.push(None);
    }

    /// Whether [`advance`](Self::advance) has anything to do at `tick`.
    fn has_work(&self, run: &RunCtx<'_, E>, tick: u64) -> bool {
        let hosts_act =
            tick == 0 || run.detection.audits_at(tick) || run.telemetry || run.drift_rate > 0.0;
        (hosts_act && !self.ids.is_empty()) || !self.queue.is_empty() || !self.deferred.is_empty()
    }

    /// Runs this shard's part of one pass — advancing it through `tick`,
    /// or running its due remediations — and records the time as a batch.
    /// An advance that met an empty queue is not a batch.
    fn run_pass(&mut self, run: &RunCtx<'_, E>, tick: u64, remediate: bool) {
        let t0 = Instant::now();
        if remediate {
            self.remediate(run, tick);
        } else if self.advance(run, tick) {
            if run.io_latency > Duration::ZERO {
                std::thread::sleep(run.io_latency);
            }
            run.metrics.batches.inc();
        } else {
            return;
        }
        run.metrics
            .batch_micros
            .record(t0.elapsed().as_micros() as u64);
    }

    /// Advances the shard through `tick`: re-publishes deferred events,
    /// queues the audits due (the baseline audit at tick 0, or the
    /// periodic schedule), draws and applies each host's drift (each
    /// re-checking the rules that read its key on the spot), samples
    /// telemetry, then runs every queued re-check trigger against the
    /// host's cached verdicts. Returns `true` when the shard had a batch (a
    /// non-empty queue), which is what the `batches` counter counts.
    fn advance(&mut self, run: &RunCtx<'_, E>, tick: u64) -> bool {
        self.room = run.capacity.saturating_sub(self.queue.len());
        self.observed = 0;
        let mut evaluated = 0u64;
        for event in std::mem::take(&mut self.deferred) {
            self.publish(run, tick, event);
        }
        if run.detection.audits_at(tick) {
            // Surfaces pre-existing violations at tick 0.
            let detail = if tick == 0 {
                "baseline audit"
            } else {
                "scheduled audit"
            };
            for slot in 0..self.ids.len() {
                let event = SecEvent::ConfigChanged {
                    host: self.ids[slot],
                    tick,
                    detail: detail.to_string(),
                };
                self.publish(run, tick, event);
            }
        }
        let drift = tick_key(tick, Draw::Drift);
        for slot in 0..self.ids.len() {
            let host = self.ids[slot];
            if !chance(keyed(self.keys[slot], drift), run.drift_rate) {
                continue;
            }
            self.drift_events += 1;
            let platform = self.hosts[slot].platform();
            let seed = keyed(self.keys[slot], tick_key(tick, Draw::Plan));
            let plan = DriftInjector::new(seed).plan(platform);
            let ev = plan.apply(&mut *self.hosts[slot]);
            run.catalog.mark_readers(ev.key.id(), &mut self.stale[slot]);
            evaluated += self.refresh(run, slot, tick) as u64;
            if let Some(root) = run.drift_root {
                let event = Event::debug("soc.drift")
                    .at(tick)
                    .trace(root.child_u64("host", host as u64).child_u64("tick", tick))
                    .field("host", host)
                    .field("detail", ev.detail.clone());
                self.drift_log.push((host, event));
            }
            let event = SecEvent::DriftApplied {
                host,
                tick,
                kind: ev.kind,
                detail: ev.detail,
            };
            self.publish(run, tick, event);
        }
        if run.telemetry {
            let burst = tick_key(tick, Draw::Burst);
            for slot in 0..self.ids.len() {
                let mut failed_logins = 0.0;
                let mut lockout = 0.0;
                if chance(keyed(self.keys[slot], burst), run.attack_rate) {
                    failed_logins = 4.0;
                    self.attack_since[slot] = Some(tick);
                } else if let Some(t0) = self.attack_since[slot] {
                    // A compliant host answers the burst with a lockout;
                    // a drifted one has lost the mechanism and stays
                    // silent.
                    if self.open[slot].is_empty() {
                        lockout = 1.0;
                        self.attack_since[slot] = None;
                    } else if tick.saturating_sub(t0) > 3 {
                        self.attack_since[slot] = None;
                    }
                }
                let host = self.ids[slot];
                if let Some(root) = run.telemetry_roots.get(host) {
                    // The per-host telemetry stream is Debug noise until
                    // an incident makes it evidence — exactly what
                    // adaptive tail-sampling is for.
                    let event = Event::debug("soc.signal")
                        .at(tick)
                        .trace(root.child_u64("sig", tick))
                        .field("host", host)
                        .field("failed_logins", failed_logins)
                        .field("lockout", lockout);
                    self.signal_log.push((host, event));
                }
                let event = SecEvent::SignalTick {
                    host,
                    tick,
                    signals: [("failed_logins", failed_logins), ("lockout", lockout)],
                };
                self.publish(run, tick, event);
            }
        }
        if tick == 0 {
            // Every slot's first check, so the cache (and the failing
            // tally) is exact from the first tick.
            for slot in 0..self.ids.len() {
                evaluated += self.refresh(run, slot, tick) as u64;
            }
        }
        run.metrics.rules_evaluated.add(evaluated);

        let depth = self.queue.len() + self.observed;
        let mut processed = self.observed as u64;
        let mut checks = 0u64;
        let rules = run.catalog.len() as u64;
        let mut queue = std::mem::take(&mut self.queue);
        for (seq, event) in queue.drain(..) {
            let (SecEvent::DriftApplied { host, .. }
            | SecEvent::ConfigChanged { host, .. }
            | SecEvent::SloAlert { host, .. }) = event
            else {
                unreachable!("only re-check triggers are queued");
            };
            // The cache is exact: every rule's verdict is one follow-up
            // event, delivered to the host's compliance monitor.
            let slot = run.slots[host];
            let verdicts = &self.verdicts[slot];
            for status in verdicts {
                self.monitors[slot].compliance.observe(&!status.is_fail());
            }
            for &rule in run.detect_order {
                if verdicts[rule] != CheckStatus::Fail {
                    continue;
                }
                // A pure function of (trace_seed, rule, host, tick),
                // rooted at the requirement, so the incident chain
                // resolves to the catalogue rule.
                let trace = run.trace_seed.map(|s| {
                    TraceContext::root(s, finding_id(run.catalog, rule))
                        .child_u64("host", host as u64)
                        .child_u64("detect", tick)
                });
                self.detections.push(Detection {
                    shard: self.shard,
                    seq,
                    host,
                    rule: Some(rule),
                    introduced_at: self.failing_since[slot][&rule],
                    detected_at: tick,
                    trace,
                });
            }
            processed += 1 + rules;
            checks += rules;
        }
        self.queue = queue;
        if depth == 0 {
            return false;
        }
        run.metrics.observe_queue_depth(depth as u64);
        run.metrics.events_processed.add(processed);
        run.metrics.checks_run.add(checks);
        true
    }

    /// Brings `slot`'s verdicts up to date at `now` by re-checking its
    /// stale rules. Returns how many it evaluated.
    fn refresh(&mut self, run: &RunCtx<'_, E>, slot: usize, now: u64) -> usize {
        let host = &*self.hosts[slot];
        let stale = &mut self.stale[slot];
        let evaluated = stale.len();
        let changed = run.catalog.recheck(host, &mut self.verdicts[slot], stale);
        assert_fresh(run.catalog, host, &self.verdicts[slot], self.ids[slot]);
        if changed > 0 {
            self.settle(slot, now);
        }
        evaluated
    }

    /// Brings `slot`'s failing-since map, and the shard's tally of
    /// failing slots, in line with its verdicts as of `now`.
    fn settle(&mut self, slot: usize, now: u64) {
        let verdicts = &self.verdicts[slot];
        let since = &mut self.failing_since[slot];
        let was_failing = !since.is_empty();
        since.retain(|&rule, _| verdicts[rule].is_fail());
        for (rule, status) in verdicts.iter().enumerate() {
            if status.is_fail() {
                since.entry(rule).or_insert(now);
            }
        }
        match (was_failing, since.is_empty()) {
            (false, false) => self.failing += 1,
            (true, true) => self.failing -= 1,
            _ => {}
        }
    }

    /// Sequences `event` if the queue has room, else defers it. A
    /// telemetry sample is fed to its host's TEARS monitor here; any
    /// other event waits in the queue for the catalogue.
    fn publish(&mut self, run: &RunCtx<'_, E>, now: u64, event: SecEvent) {
        if self.room == 0 {
            self.deferrals += 1;
            self.deferred.push_back(event);
            return;
        }
        self.room -= 1;
        self.published += 1;
        let seq = self.seq;
        self.seq += 1;
        let SecEvent::SignalTick { host, signals, .. } = event else {
            if matches!(event, SecEvent::DriftApplied { .. })
                && run.detection != DetectionMode::Continuous
            {
                self.observed += 1;
            } else {
                self.queue.push_back((seq, event));
            }
            return;
        };
        self.observed += 1;
        let Some(tears) = &mut self.monitors[run.slots[host]].tears else {
            return;
        };
        for activation in tears.observe(&signals) {
            self.detections.push(Detection {
                shard: self.shard,
                seq,
                host,
                rule: None,
                introduced_at: activation,
                detected_at: now,
                trace: run.trace_seed.map(|s| {
                    TraceContext::root(s, tears.name())
                        .child_u64("host", host as u64)
                        .child_u64("detect", now)
                }),
            });
        }
    }

    /// Runs the shard's due remediation tasks at `tick`, in dispatcher
    /// order.
    fn remediate(&mut self, run: &RunCtx<'_, E>, tick: u64) {
        let mut tasks = std::mem::take(&mut self.tasks);
        for (order, task, fault) in tasks.drain(..) {
            let slot = run.slots[task.host];
            let open = self.open[slot]
                .iter()
                .find(|&(&rule, _)| finding_id(run.catalog, rule) == task.rule)
                .map(|(&rule, &incident)| (rule, incident));
            let attempt = match open {
                None => Attempt::Closed,
                Some((_, incident)) if fault => Attempt::Faulted { incident },
                Some((rule, incident)) => {
                    // The planner starts from the host's verdicts, exact
                    // between passes, and leaves its final verdicts in
                    // the cache; they are the check that closes the
                    // remediation.
                    let verdicts = &mut self.verdicts[slot];
                    let evaluated =
                        run.planner
                            .remediate_from(run.catalog, &mut *self.hosts[slot], verdicts);
                    run.metrics.rules_evaluated.add(evaluated as u64);
                    assert_fresh(run.catalog, &*self.hosts[slot], verdicts, task.host);
                    self.settle(slot, tick);
                    let verdicts = &self.verdicts[slot];
                    let mut resolved = Vec::new();
                    self.open[slot].retain(|&rule, &mut incident| {
                        let passes = verdicts[rule].is_pass();
                        if passes {
                            resolved.push(incident);
                        }
                        !passes
                    });
                    Attempt::Ran {
                        incident,
                        resolved,
                        failed: self.open[slot].contains_key(&rule),
                    }
                }
            };
            self.outcomes.push((order, task, attempt));
        }
        self.tasks = tasks;
    }

    /// Queues an SLO alert for the next tick's batch, or defers it when
    /// the queue is full. Returns whether it was accepted.
    fn publish_alert(&mut self, capacity: usize, event: SecEvent) -> bool {
        if self.queue.len() >= capacity {
            self.deferred.push_back(event);
            return false;
        }
        self.queue.push_back((self.seq, event));
        self.seq += 1;
        true
    }
}

/// Locks every shard, in shard order (the main thread's view between
/// passes; no pass is running, so no lock waits).
fn lock_all<'s, 'h, E>(shards: &'s [Mutex<Shard<'h, E>>]) -> Vec<MutexGuard<'s, Shard<'h, E>>> {
    shards.iter().map(Mutex::lock).collect()
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
    /// recorder (experiment E12 compares the two: the difference is
    /// within run-to-run noise, and no bound is asserted);
    /// the returned report snapshots whatever the instruments captured.
    /// Under tracing, requirement roots are journalled at tick 0, every
    /// detection/remediation step emits a journal event chained to the
    /// requirement's [`TraceContext`], and an optional [`SloPolicy`]
    /// evaluates burn-rate rules in-run. [`SocTracing::disabled`]
    /// journals nothing; experiment E14 measures the enabled overhead.
    /// Journal events are emitted from the main thread in a fixed order
    /// with purely derived contents, so equal-seed runs produce
    /// identical journals at any worker count; a tick's events are
    /// emitted during the next tick's advance pass, and all of them
    /// before this returns.
    ///
    /// # Panics
    /// With the panic of a worker's pass or of the journal's sink.
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
        // Host→(shard, slot) tables, built once per run.
        let homes: Vec<usize> = (0..n_hosts).map(|h| shard_of(h, cfg.shards)).collect();
        let mut parts: Vec<Shard<'_, E>> = (0..cfg.shards).map(Shard::new).collect();
        let mut slots = Vec::with_capacity(n_hosts);
        for (id, host) in hosts.iter_mut().enumerate() {
            let part = &mut parts[homes[id]];
            slots.push(part.ids.len());
            part.admit(
                id,
                cfg.seed,
                host,
                HostMonitors::new(self.assertion.clone()),
                self.catalog.len(),
            );
        }
        let shards: Vec<Mutex<Shard<'_, E>>> = parts.into_iter().map(Mutex::new).collect();
        // Telemetry roots (one per host, minted once): the signal
        // firehose journals as children of these, so tail-sampling can
        // drop a quiet host's whole stream by one decision. Only minted
        // when the journal's severity floor admits `Debug` — at
        // operational floors the firehose would be rejected per event,
        // so skip building it entirely.
        let journal_debug = journal.accepts(Severity::Debug);
        let telemetry_roots: Vec<TraceContext> = match (trace_seed, &self.assertion) {
            (Some(s), Some(_)) if journal_debug => (0..n_hosts)
                .map(|h| TraceContext::root(s, &format!("telemetry:{h}")))
                .collect(),
            _ => Vec::new(),
        };
        // Hoisted out of the tick loop: each drift event's context is a
        // child of this fixed root, so only the cheap child derivation
        // runs per event.
        let drift_root = trace_seed
            .filter(|_| journal_debug)
            .map(|s| TraceContext::root(s, "drift"));
        let planner = RemediationPlanner::default();
        let mut detect_order: Vec<usize> = (0..self.catalog.len()).collect();
        detect_order.sort_by_key(|&rule| finding_id(self.catalog, rule));
        let tears_name = self.assertion.as_ref().map_or("", |ga| ga.name());
        let run = RunCtx {
            catalog: self.catalog,
            detect_order: &detect_order,
            planner: &planner,
            metrics,
            slots: &slots,
            capacity: cfg.queue_capacity,
            io_latency: cfg.io_latency,
            trace_seed,
            telemetry: self.assertion.is_some(),
            telemetry_roots: &telemetry_roots,
            drift_root,
            detection: cfg.detection,
            drift_rate: cfg.drift_rate,
            attack_rate: cfg.attack_rate,
        };
        let wall_start = Instant::now();

        let mut incidents: Vec<SocIncident> = Vec::new();
        let mut dispatcher = Dispatcher::new(cfg.remediation, cfg.seed ^ 0x0D15_EA5E);
        let mut noncompliant_host_ticks = 0u64;
        let mut fleet_trace = Trace::new();
        let mut live_slo = tracing
            .slo
            .as_ref()
            .filter(|_| tracing_on)
            .map(|p| LiveSloEngine::new(tracing.trace_seed, p.rules.clone()));
        let mut slo_alerts: Vec<SloAlert> = Vec::new();
        // The journal events of the tick being merged, in emission
        // order, behind its shards' firehose logs; all journalled during
        // the next tick's advance pass.
        let mut pending: Vec<Event> = Vec::new();
        let mut firehose = Firehose::new(cfg.shards);

        // A pass locks each shard it runs, so the main thread, which
        // holds every shard between passes, lets go of them first.
        let work = |(tick, remediate), shard: usize| {
            shards[shard].lock().run_pass(&run, tick, remediate);
        };
        with_pool(cfg.workers, work, |pool| {
            for tick in 0..cfg.duration {
                // --- Step 1 (workers): advance the shards with work ---
                let mut parts = lock_all(&shards);
                let busy: Vec<usize> = parts
                    .iter()
                    .filter(|p| p.has_work(&run, tick))
                    .map(|p| p.shard)
                    .collect();
                firehose.take(&mut parts);
                drop(parts);
                // The main thread journals the last tick's events while
                // the workers advance this one.
                pool.pass((tick, false), &busy, || {
                    firehose.journal(journal, &homes, &mut pending);
                });
                parts = lock_all(&shards);

                // --- Step 2 (main): merge detections ------------------
                let published: u64 = parts
                    .iter_mut()
                    .map(|p| std::mem::take(&mut p.published))
                    .sum();
                let deferrals: u64 = parts
                    .iter_mut()
                    .map(|p| std::mem::take(&mut p.deferrals))
                    .sum();
                metrics.events_published.add(published);
                metrics.events_deferred.add(deferrals);
                let mut detections: Vec<Detection> = Vec::new();
                for part in parts.iter_mut() {
                    detections.append(&mut part.detections);
                }
                // Stable: one event's detections keep their order.
                detections.sort_by_key(|det| (det.shard, det.seq));
                for det in detections {
                    match det.rule {
                        None => {
                            if tracing_on {
                                let mut ev = Event::warn("soc.tears_violation")
                                    .at(tick)
                                    .field("host", det.host)
                                    .field("rule", tears_name)
                                    .field("activated_at", det.introduced_at);
                                if let Some(t) = det.trace {
                                    ev = ev.trace(t);
                                }
                                pending.push(ev);
                            }
                            incidents.push(SocIncident {
                                host: det.host,
                                rule: tears_name.to_string(),
                                kind: DetectionKind::Tears,
                                introduced_at: det.introduced_at,
                                detected_at: det.detected_at,
                                resolved_at: None,
                                attempts: 0,
                                trace: det.trace,
                            });
                        }
                        Some(rule) => {
                            let open = &mut parts[det.shard].open[slots[det.host]];
                            if open.contains_key(&rule) {
                                continue; // already being remediated
                            }
                            let finding = finding_id(self.catalog, rule);
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
                                    .field("rule", finding)
                                    .field("latency", latency);
                                if let Some(t) = det.trace {
                                    ev = ev.trace(t);
                                }
                                pending.push(ev);
                            }
                            open.insert(rule, incidents.len());
                            dispatcher.schedule(
                                tick,
                                RemediationTask {
                                    host: det.host,
                                    rule: finding.to_string(),
                                    introduced_at: det.introduced_at,
                                    detected_at: det.detected_at,
                                    attempt: 0,
                                    trace: det.trace,
                                },
                            );
                            incidents.push(SocIncident {
                                host: det.host,
                                rule: finding.to_string(),
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

                // --- Step 3 (workers, then main): remediate -----------
                let due = dispatcher.take_due(tick);
                if !due.is_empty() {
                    let mut busy = Vec::new();
                    for (order, task) in due.into_iter().enumerate() {
                        let fault = dispatcher.fault_injected(&task);
                        let part = &mut parts[homes[task.host]];
                        if part.tasks.is_empty() {
                            busy.push(part.shard);
                        }
                        part.tasks.push((order, task, fault));
                    }
                    drop(parts);
                    pool.pass((tick, true), &busy, || ());
                    parts = lock_all(&shards);
                    let mut outcomes: Vec<(usize, RemediationTask, Attempt)> = parts
                        .iter_mut()
                        .flat_map(|p| p.outcomes.drain(..))
                        .collect();
                    outcomes.sort_unstable_by_key(|&(order, ..)| order);
                    for (_, task, attempt) in outcomes {
                        let (incident, ran) = match attempt {
                            Attempt::Closed => continue, // repaired as a side effect earlier
                            Attempt::Faulted { incident } => (incident, None),
                            Attempt::Ran {
                                incident,
                                resolved,
                                failed,
                            } => (incident, Some((resolved, failed))),
                        };
                        incidents[incident].attempts += 1;
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
                            pending.push(ev);
                        }
                        if let Some((resolved, failed)) = ran {
                            metrics.remediations.inc();
                            // The planner's final verdicts count as this
                            // remediation's check of the whole catalogue,
                            // whatever the cache spared it.
                            metrics.checks_run.add(self.catalog.len() as u64);
                            if let Some(live) = live_slo.as_mut() {
                                live.incr("soc.remediations", tick, 1);
                                live.incr("soc.checks_run", tick, self.catalog.len() as u64);
                            }
                            for idx in resolved {
                                incidents[idx].resolved_at = Some(tick);
                                if tracing_on {
                                    let mut ev = Event::info("soc.remediation.resolved")
                                        .at(tick)
                                        .field("host", incidents[idx].host)
                                        .field("rule", incidents[idx].rule.as_str());
                                    if let Some(t) = incidents[idx].trace {
                                        ev = ev.trace(t.child_u64("resolve", tick));
                                    }
                                    pending.push(ev);
                                }
                            }
                            if !failed {
                                continue;
                            }
                        }
                        // An injected fault, or a run that left the
                        // task's own rule failing: either way the
                        // attempt failed.
                        fail_attempt(
                            &mut dispatcher,
                            task,
                            tick,
                            attempt_trace,
                            metrics,
                            live_slo.as_mut(),
                            tracing_on.then_some(&mut pending),
                        );
                    }
                }

                // --- Accounting + SLO evaluation (main) ---------------
                let broken: u64 = parts.iter().map(|p| p.failing).sum();
                noncompliant_host_ticks += broken;
                fleet_trace.push(broken == 0);
                if let (Some(policy), Some(live)) = (&tracing.slo, live_slo.as_mut()) {
                    // Drain this tick's publish volumes into the
                    // streaming windows, then evaluate on cadence.
                    live.incr("soc.events_published", tick, published);
                    live.incr("soc.events_deferred", tick, deferrals);
                    if n_hosts > 0 && policy.period > 0 && (tick + 1) % policy.period == 0 {
                        for alert in live.end_tick(tick, &mut pending) {
                            // Alerts close the loop: each one triggers a
                            // re-audit of a representative host on the
                            // next tick.
                            let event = SecEvent::SloAlert {
                                host: 0,
                                tick,
                                rule: alert.rule.clone(),
                            };
                            let counter =
                                if parts[homes[0]].publish_alert(cfg.queue_capacity, event) {
                                    &metrics.events_published
                                } else {
                                    &metrics.events_deferred
                                };
                            counter.inc();
                            slo_alerts.push(alert);
                        }
                    }
                }
            }
            firehose.take(&mut lock_all(&shards));
            firehose.journal(journal, &homes, &mut pending);
        });

        SocReport {
            incidents,
            dead_letters: dispatcher.into_dead_letters(),
            drift_events: shards.iter().map(|p| p.lock().drift_events).sum(),
            noncompliant_host_ticks,
            duration: cfg.duration,
            fleet_compliance_trace: fleet_trace,
            slo_alerts,
            metrics: metrics.snapshot(wall_start.elapsed().as_secs_f64()),
        }
    }
}

/// In debug builds, asserts that host `id`'s cached verdicts equal a
/// full check of the host.
fn assert_fresh<E>(catalog: &Catalog<E>, host: &E, verdicts: &[CheckStatus], id: HostId) {
    if cfg!(debug_assertions) {
        assert_eq!(
            verdicts,
            catalog.verdicts(host),
            "host {id}: the verdict cache differs from a full check"
        );
    }
}

/// The finding id of catalogue entry `rule`.
fn finding_id<E>(catalog: &Catalog<E>, rule: usize) -> &str {
    catalog
        .get(rule)
        .expect("a rule index from this catalogue")
        .spec()
        .finding_id()
}

/// Records a failed remediation attempt — an injected fault, or a
/// planner run that left the task's own rule failing. The dispatcher
/// reschedules the task with backoff or dead-letters it once its retries
/// are spent; the counters, the live SLO signals and the journal event
/// appended to `events` (under tracing) record which.
fn fail_attempt(
    dispatcher: &mut Dispatcher,
    task: RemediationTask,
    tick: u64,
    attempt_trace: Option<TraceContext>,
    metrics: &SocMetrics,
    live_slo: Option<&mut LiveSloEngine>,
    events: Option<&mut Vec<Event>>,
) {
    let record = events.map(|events| (events, task.host, task.rule.clone()));
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
    if let Some((events, host, rule)) = record {
        let ev = if retried {
            Event::warn("soc.remediation.retry")
        } else {
            Event::error("soc.remediation.dead_letter")
        };
        let mut ev = ev.at(tick).field("host", host).field("rule", rule);
        if let Some(t) = attempt_trace {
            ev = ev.trace(t);
        }
        events.push(ev);
    }
}

/// One tick's per-host journal events, swapped out of the shards'
/// logs before the next advance pass refills them. The two sets of
/// buffers trade places every tick, so both keep their capacity.
struct Firehose {
    drift: Vec<Vec<(HostId, Event)>>,
    signal: Vec<Vec<(HostId, Event)>>,
}

impl Firehose {
    fn new(shards: usize) -> Self {
        Firehose {
            drift: (0..shards).map(|_| Vec::new()).collect(),
            signal: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Swaps the shards' logs (the tick just advanced) for this
    /// firehose's emptied ones; no event moves.
    fn take<E>(&mut self, parts: &mut [MutexGuard<'_, Shard<'_, E>>]) {
        for ((part, drift), signal) in parts.iter_mut().zip(&mut self.drift).zip(&mut self.signal) {
            std::mem::swap(&mut part.drift_log, drift);
            std::mem::swap(&mut part.signal_log, signal);
        }
    }

    /// Journals the taken tick as one batch: its drift events, then its
    /// signal events, each in host order, then `pending`. A disabled
    /// journal touches nothing (its logs and `pending` stay empty).
    fn journal(&mut self, journal: &Journal, homes: &[usize], pending: &mut Vec<Event>) {
        if journal.is_enabled() {
            journal.emit_all(
                in_host_order(&mut self.drift, homes)
                    .chain(in_host_order(&mut self.signal, homes))
                    .chain(pending.drain(..)),
            );
        }
    }
}

/// Drains per-shard logs, each already in ascending host order, into
/// one stream in host order: one cursor per shard, walked by the
/// host→shard table and stopped once every log is empty.
fn in_host_order<'l>(
    logs: &'l mut [Vec<(HostId, Event)>],
    homes: &'l [usize],
) -> impl Iterator<Item = Event> + 'l {
    let mut cursors: Vec<_> = logs.iter_mut().map(|log| log.drain(..)).collect();
    let mut left: usize = cursors.iter().map(ExactSizeIterator::len).sum();
    let mut hosts = homes.iter().enumerate();
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        for (host, &home) in hosts.by_ref() {
            let cursor = &mut cursors[home];
            if cursor.as_slice().first().is_some_and(|&(h, _)| h == host) {
                left -= 1;
                return cursor.next().map(|(_, event)| event);
            }
        }
        None
    })
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
            (
                SocConfig {
                    detection: DetectionMode::Periodic {
                        monitor: Some(0),
                        audit: 500,
                    },
                    ..SocConfig::default()
                },
                SocConfigError::ZeroMonitorPeriod,
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
    fn periodic_detection_waits_for_the_schedule() {
        let catalog = ubuntu::catalog();
        let run = |detection| {
            let cfg = SocConfig {
                detection,
                ..base_config()
            };
            SocEngine::new(&catalog, cfg)
                .unwrap()
                .run(&mut compliant_fleet(6))
        };
        let continuous = run(DetectionMode::Continuous);
        let periodic = run(DetectionMode::Periodic {
            monitor: Some(10),
            audit: 0,
        });
        assert_eq!(continuous.drift_events, periodic.drift_events);
        assert!(!periodic.incidents.is_empty());
        assert!(periodic
            .incidents
            .iter()
            .all(|i| i.detected_at % 10 == 0 && i.latency() < 10));
        assert!(periodic.noncompliant_host_ticks > continuous.noncompliant_host_ticks);
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
