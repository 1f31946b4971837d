//! Protection at operations: drift, monitoring, reaction.
//!
//! The operations phase advances a simulated clock over the deployed
//! host. Each tick may inject configuration drift (seeded). A compliance
//! monitor re-checks the STIG catalogue every `monitor_period` ticks —
//! the host-level instantiation of the `MonitoringLoop` idea — and on a
//! violation the remediation planner repairs the host and an
//! [`Incident`] is recorded with its exact detection latency. Without a
//! monitor (the paper's unassisted baseline), violations sit unnoticed
//! until the next scheduled audit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use serde::Serialize;
use vdo_core::{Catalog, RemediationPlanner};
use vdo_host::{DriftInjector, HostWrite};
use vdo_soc::{DetectionKind, SocConfig, SocEngine, SocHost, SocMetrics, SocTracing};
use vdo_temporal::Trace;
use vdo_trace::{Event, Telemetry, TraceContext};

/// A host class the drift injector knows how to degrade.
/// Blanket-implemented for every [`HostWrite`] type, so one
/// [`OperationsPhase`] serves Ubuntu and Windows deployments alike —
/// owned structs and store-backed views included.
pub trait DriftTarget {
    /// Applies `n` random drift events from `injector`.
    fn apply_drift(&mut self, injector: &mut DriftInjector, n: usize);
}

impl<H: HostWrite> DriftTarget for H {
    fn apply_drift(&mut self, injector: &mut DriftInjector, n: usize) {
        let platform = self.platform();
        injector.drift(self, platform, n);
    }
}

/// Which monitoring engine watches the deployed host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEngine {
    /// Fixed-period polling: the compliance catalogue is re-checked
    /// every `monitor_period` ticks (the `MonitoringLoop` idea at host
    /// scale). Mean detection latency is `(period - 1) / 2` ticks.
    Polling,
    /// The `vdo-soc` event-driven engine: every drift event is pushed
    /// onto the sharded bus and checked on the tick it happens, by a
    /// pool of this many workers. `monitor_period` and `audit_period` are
    /// ignored — there is nothing to poll.
    EventDriven {
        /// Threads in the monitor pool, the calling thread included (>= 1).
        workers: usize,
    },
}

/// Operations-phase parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpsConfig {
    /// Monitoring engine; [`MonitorEngine::Polling`] reproduces the
    /// paper's baseline behaviour.
    pub engine: MonitorEngine,
    /// Ticks to simulate.
    pub duration: u64,
    /// Per-tick probability of one drift event.
    pub drift_rate: f64,
    /// Compliance-check period in ticks; `None` disables continuous
    /// monitoring (violations are found only by the audit).
    pub monitor_period: Option<u64>,
    /// Scheduled-audit period in ticks (the manual baseline's only
    /// detection mechanism; also runs when monitoring is on).
    pub audit_period: u64,
    /// RNG seed for drift timing.
    pub seed: u64,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            engine: MonitorEngine::Polling,
            duration: 1_000,
            drift_rate: 0.02,
            monitor_period: Some(10),
            audit_period: 250,
            seed: 0,
        }
    }
}

/// One detected-and-repaired compliance violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// Tick at which the drift event broke compliance.
    pub introduced_at: u64,
    /// Tick at which a monitor or audit detected it.
    pub detected_at: u64,
    /// `true` when found by the continuous monitor, `false` by audit.
    pub found_by_monitor: bool,
    /// Causal context when the run is traced: its `trace_id` is the
    /// root trace of the catalogue requirement the incident violated,
    /// so the chain requirement → detection → remediation is walkable
    /// in the journal. `None` on untraced runs.
    pub trace: Option<TraceContext>,
}

impl Incident {
    /// Detection latency in ticks.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.detected_at - self.introduced_at
    }
}

impl Serialize for Incident {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("introduced_at", self.introduced_at.to_value()),
            ("detected_at", self.detected_at.to_value()),
            ("found_by_monitor", self.found_by_monitor.to_value()),
            ("latency", self.latency().to_value()),
            ("trace", self.trace.to_value()),
        ])
    }
}

/// Result of one operations phase.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsReport {
    /// All incidents in detection order.
    pub incidents: Vec<Incident>,
    /// Number of drift events injected.
    pub drift_events: u64,
    /// Ticks the host spent out of compliance.
    pub noncompliant_ticks: u64,
    /// Total ticks simulated.
    pub duration: u64,
    /// Compliance checks performed (monitor + audit sweeps).
    pub checks: u64,
    /// Ground-truth compliance per tick (`true` = compliant), suitable
    /// for post-hoc temporal-pattern evaluation (e.g.
    /// `GlobalUniversality` over the operations history).
    pub compliance_trace: Trace<bool>,
}

impl OpsReport {
    /// Mean detection latency over all incidents; `0` when there were
    /// none (nothing to detect is instant detection for comparison
    /// purposes — callers compare equal-seed runs, which have equal
    /// incident opportunities).
    #[must_use]
    pub fn mean_detection_latency(&self) -> f64 {
        if self.incidents.is_empty() {
            0.0
        } else {
            self.incidents
                .iter()
                .map(|i| i.latency() as f64)
                .sum::<f64>()
                / self.incidents.len() as f64
        }
    }

    /// Fraction of ticks spent out of compliance.
    #[must_use]
    pub fn exposure(&self) -> f64 {
        if self.duration == 0 {
            0.0
        } else {
            self.noncompliant_ticks as f64 / self.duration as f64
        }
    }
}

impl Serialize for OpsReport {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("incidents", self.incidents.to_value()),
            ("drift_events", self.drift_events.to_value()),
            ("noncompliant_ticks", self.noncompliant_ticks.to_value()),
            ("duration", self.duration.to_value()),
            ("checks", self.checks.to_value()),
            (
                "mean_detection_latency",
                self.mean_detection_latency().to_value(),
            ),
            ("exposure", self.exposure().to_value()),
        ])
    }
}

/// Executes operations phases over a deployed host of any
/// [`DriftTarget`] class.
pub struct OperationsPhase<'a, E> {
    catalog: &'a Catalog<E>,
}

impl<'a, E: DriftTarget + SocHost> OperationsPhase<'a, E> {
    /// Creates the phase runner over a compliance catalogue.
    #[must_use]
    pub fn new(catalog: &'a Catalog<E>) -> Self {
        OperationsPhase { catalog }
    }

    /// Runs the phase, mutating the deployed host in place.
    ///
    /// The phase is timed under the `pipeline/ops` span and records the
    /// `ops.*` counters (`drift_events`, `checks`, `incidents`,
    /// `noncompliant_ticks`) in `telemetry.registry`. On the
    /// event-driven path the deterministic SOC engine counters also
    /// surface as `ops.soc.*`; on the polling path the remediation
    /// planner's `core.*` counters accumulate. An enabled
    /// `telemetry.journal` also records the phase's causal chain: every
    /// incident carries a [`TraceContext`] rooted at
    /// `TraceContext::root(telemetry.trace_seed, finding_id)` — the same
    /// roots the scenario mints at requirement ingestion — and
    /// detections and remediations become journal events.
    /// [`Telemetry::off`] records nothing and stamps no traces.
    pub fn run(&self, host: &mut E, config: &OpsConfig, telemetry: &Telemetry) -> OpsReport {
        let obs = &telemetry.registry;
        let _span = obs.span("pipeline/ops");
        let report = match config.engine {
            MonitorEngine::Polling => self.run_polling(host, config, telemetry),
            MonitorEngine::EventDriven { workers } => {
                self.run_event_driven(host, config, workers, telemetry)
            }
        };
        obs.counter("ops.drift_events").add(report.drift_events);
        obs.counter("ops.checks").add(report.checks);
        obs.counter("ops.incidents")
            .add(report.incidents.len() as u64);
        obs.counter("ops.noncompliant_ticks")
            .add(report.noncompliant_ticks);
        report
    }

    /// The event-driven engine: delegates to [`vdo_soc::SocEngine`]
    /// over a fleet of one and maps its report back. Drift timing and
    /// content match the polling engine for equal seeds (same RNG
    /// streams), so equal-seed runs of both engines face identical
    /// violation histories.
    fn run_event_driven(
        &self,
        host: &mut E,
        config: &OpsConfig,
        workers: usize,
        telemetry: &Telemetry,
    ) -> OpsReport {
        let soc_config = SocConfig {
            duration: config.duration,
            drift_rate: config.drift_rate,
            workers: workers.max(1),
            shards: 4,
            seed: config.seed,
            ..SocConfig::default()
        };
        let engine = SocEngine::new(self.catalog, soc_config)
            .expect("workers >= 1, 4 shards and an OpsConfig drift_rate in [0, 1]");
        let metrics = if telemetry.registry.is_enabled() {
            SocMetrics::in_registry(&telemetry.registry, "ops.soc")
        } else {
            SocMetrics::new()
        };
        let tracing = if telemetry.journal.is_enabled() {
            SocTracing::new(telemetry.journal.clone(), telemetry.trace_seed)
        } else {
            SocTracing::disabled()
        };
        let report = engine.run_traced(std::slice::from_mut(host), &metrics, &tracing);
        OpsReport {
            incidents: report
                .incidents
                .iter()
                .filter(|i| i.kind == DetectionKind::Stig)
                .map(|i| Incident {
                    introduced_at: i.introduced_at,
                    detected_at: i.detected_at,
                    found_by_monitor: true,
                    trace: i.trace,
                })
                .collect(),
            drift_events: report.drift_events,
            noncompliant_ticks: report.noncompliant_host_ticks,
            duration: report.duration,
            checks: report.metrics.checks_run,
            compliance_trace: report.fleet_compliance_trace,
        }
    }

    /// The paper's polling baseline.
    fn run_polling(&self, host: &mut E, config: &OpsConfig, telemetry: &Telemetry) -> OpsReport {
        let journal = &telemetry.journal;
        let trace_seed = telemetry.trace_seed;
        let tracing_on = journal.is_enabled();
        if tracing_on {
            // Declare the requirements this phase watches: one root per
            // catalogue rule, the anchor every later incident's
            // trace_id resolves to.
            for entry in self.catalog.iter() {
                let rule = entry.spec().finding_id();
                journal.emit(
                    Event::info("requirement.ingested")
                        .trace(TraceContext::root(trace_seed, rule))
                        .field("rule", rule),
                );
            }
        }
        let planner = RemediationPlanner::default().with_telemetry(telemetry.clone());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut drifter = DriftInjector::new(config.seed.wrapping_mul(31).wrapping_add(7));
        let mut incidents = Vec::new();
        let mut drift_events = 0;
        let mut noncompliant_ticks = 0;
        let mut checks = 0;
        let mut compliance_trace = Trace::new();
        // Tick of the oldest undetected violation, if the host is
        // currently out of compliance.
        let mut broken_since: Option<u64> = None;

        let is_compliant =
            |cat: &Catalog<E>, h: &E| cat.check_all(h).iter().all(|(_, v)| v.is_pass());

        for tick in 0..config.duration {
            // 1. Drift may arrive.
            if rng.gen_bool(config.drift_rate) {
                DriftTarget::apply_drift(host, &mut drifter, 1);
                drift_events += 1;
                if broken_since.is_none() && !is_compliant(self.catalog, host) {
                    broken_since = Some(tick);
                }
            }
            // 2. Detection: continuous monitor and/or scheduled audit.
            let monitor_due = config.monitor_period.is_some_and(|p| tick % p == 0);
            let audit_due = config.audit_period > 0 && tick % config.audit_period == 0 && tick > 0;
            if monitor_due || audit_due {
                checks += 1;
                if let Some(since) = broken_since {
                    // Re-verify (the drift may not have broken anything).
                    if is_compliant(self.catalog, host) {
                        broken_since = None;
                    } else {
                        // Attribute the incident before repairing: the
                        // first failing rule names the violated
                        // requirement, and its root becomes the
                        // incident's trace id.
                        let trace = if tracing_on {
                            self.catalog
                                .check_all(host)
                                .iter()
                                .find(|(_, v)| !v.is_pass())
                                .map(|(e, _)| {
                                    TraceContext::root(trace_seed, e.spec().finding_id())
                                        .child_u64("host", 0)
                                        .child_u64("detect", tick)
                                })
                        } else {
                            None
                        };
                        planner.run_with_waivers(
                            self.catalog,
                            host,
                            &vdo_core::WaiverSet::new(),
                            tick,
                        );
                        if tracing_on {
                            let mut ev = Event::warn("ops.incident")
                                .at(tick)
                                .field("introduced_at", since)
                                .field("monitor", monitor_due);
                            if let Some(t) = trace {
                                ev = ev.trace(t);
                                journal.emit(
                                    Event::info("ops.remediated")
                                        .at(tick)
                                        .trace(t.child_u64("resolve", tick)),
                                );
                            }
                            journal.emit(ev);
                        }
                        incidents.push(Incident {
                            introduced_at: since,
                            detected_at: tick,
                            found_by_monitor: monitor_due,
                            trace,
                        });
                        broken_since = None;
                    }
                }
            }
            if broken_since.is_some() {
                noncompliant_ticks += 1;
            }
            compliance_trace.push(broken_since.is_none());
        }
        // Close out any violation still open at the end as undetected
        // exposure (no incident recorded — it was never found).
        OpsReport {
            incidents,
            drift_events,
            noncompliant_ticks,
            duration: config.duration,
            checks,
            compliance_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_host::UnixHost;
    use vdo_stigs::ubuntu;
    use vdo_trace::Journal;

    fn compliant_host(catalog: &Catalog<UnixHost>) -> UnixHost {
        let mut h = UnixHost::baseline_ubuntu_1804();
        RemediationPlanner::default().run(catalog, &mut h);
        h
    }

    #[test]
    fn quiet_operations_produce_no_incidents() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                duration: 200,
                drift_rate: 0.0,
                ..OpsConfig::default()
            },
            &Telemetry::off(),
        );
        assert!(report.incidents.is_empty());
        assert_eq!(report.drift_events, 0);
        assert_eq!(report.exposure(), 0.0);
    }

    #[test]
    fn monitored_operations_detect_and_repair() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                duration: 2_000,
                drift_rate: 0.05,
                monitor_period: Some(5),
                audit_period: 500,
                seed: 3,
                ..OpsConfig::default()
            },
            &Telemetry::off(),
        );
        assert!(report.drift_events > 0);
        assert!(
            !report.incidents.is_empty(),
            "drift at 5% over 2k ticks must break something"
        );
        for i in &report.incidents {
            assert!(
                i.latency() <= 5 + 1,
                "monitor period bounds latency, got {}",
                i.latency()
            );
        }
        // Host ends compliant (last repair) unless drift arrived after
        // the final check — tolerate that by re-running the planner.
        let planner = RemediationPlanner::default();
        let run = planner.run(&catalog, &mut host);
        assert!(run.report.is_fully_compliant());
    }

    #[test]
    fn unmonitored_operations_wait_for_audit() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let cfg = OpsConfig {
            duration: 2_000,
            drift_rate: 0.05,
            monitor_period: None,
            audit_period: 400,
            seed: 3,
            ..OpsConfig::default()
        };
        let report = OperationsPhase::new(&catalog).run(&mut host, &cfg, &Telemetry::off());
        assert!(!report.incidents.is_empty());
        assert!(report.incidents.iter().all(|i| !i.found_by_monitor));
        assert!(report.incidents.iter().all(|i| i.detected_at % 400 == 0));
    }

    #[test]
    fn monitoring_beats_audit_on_latency_and_exposure() {
        let catalog = ubuntu::catalog();
        let base = OpsConfig {
            duration: 3_000,
            drift_rate: 0.03,
            audit_period: 500,
            seed: 11,
            monitor_period: Some(10),
            ..OpsConfig::default()
        };
        let mut h1 = compliant_host(&catalog);
        let monitored = OperationsPhase::new(&catalog).run(&mut h1, &base, &Telemetry::off());
        let mut h2 = compliant_host(&catalog);
        let audited = OperationsPhase::new(&catalog).run(
            &mut h2,
            &OpsConfig {
                monitor_period: None,
                ..base
            },
            &Telemetry::off(),
        );
        assert!(
            monitored.mean_detection_latency() < audited.mean_detection_latency(),
            "monitor {} vs audit {}",
            monitored.mean_detection_latency(),
            audited.mean_detection_latency()
        );
        assert!(monitored.exposure() < audited.exposure());
    }

    #[test]
    fn compliance_trace_supports_temporal_evaluation() {
        use vdo_core::CheckStatus;
        use vdo_temporal::{GlobalUniversality, Semantics, TemporalPattern};

        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                duration: 1_000,
                drift_rate: 0.05,
                monitor_period: Some(5),
                audit_period: 250,
                seed: 3,
                ..OpsConfig::default()
            },
            &Telemetry::off(),
        );
        assert_eq!(report.compliance_trace.len(), 1_000);
        // "Globally compliant" over the operations history fails exactly
        // when the host ever spent a tick out of compliance.
        let always_compliant = GlobalUniversality::new(|c: &bool| CheckStatus::from(*c));
        let verdict = always_compliant.evaluate(&report.compliance_trace, Semantics::Complete);
        assert_eq!(verdict.is_fail(), report.noncompliant_ticks > 0);
        // Exposure recomputed from the trace matches the counter.
        let bad = report
            .compliance_trace
            .states()
            .iter()
            .filter(|&&c| !c)
            .count() as u64;
        assert_eq!(bad, report.noncompliant_ticks);
    }

    #[test]
    fn deterministic_per_seed() {
        let catalog = ubuntu::catalog();
        let cfg = OpsConfig {
            duration: 500,
            drift_rate: 0.1,
            seed: 9,
            ..OpsConfig::default()
        };
        let mut a = compliant_host(&catalog);
        let mut b = compliant_host(&catalog);
        let ra = OperationsPhase::new(&catalog).run(&mut a, &cfg, &Telemetry::off());
        let rb = OperationsPhase::new(&catalog).run(&mut b, &cfg, &Telemetry::off());
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn windows_hosts_are_first_class_drift_targets() {
        let catalog = vdo_stigs::win10::catalog();
        let mut host = vdo_host::WindowsHost::baseline_win10();
        RemediationPlanner::default().run(&catalog, &mut host);
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                duration: 2_000,
                drift_rate: 0.05,
                monitor_period: Some(10),
                audit_period: 500,
                seed: 4,
                ..OpsConfig::default()
            },
            &Telemetry::off(),
        );
        assert!(report.drift_events > 0);
        assert!(
            !report.incidents.is_empty(),
            "audit-policy drift must be caught"
        );
        assert!(report.incidents.iter().all(|i| i.latency() <= 10));
    }

    #[test]
    fn event_driven_engine_detects_on_the_drift_tick() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                engine: MonitorEngine::EventDriven { workers: 2 },
                duration: 2_000,
                drift_rate: 0.05,
                seed: 3,
                ..OpsConfig::default()
            },
            &Telemetry::off(),
        );
        assert!(report.drift_events > 0);
        assert!(!report.incidents.is_empty());
        assert!(
            report.incidents.iter().all(|i| i.latency() == 0),
            "event-driven detection is same-tick"
        );
        assert_eq!(report.compliance_trace.len(), 2_000);
    }

    #[test]
    fn observed_event_driven_run_exports_soc_counters() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let registry = vdo_obs::Registry::new();
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                engine: MonitorEngine::EventDriven { workers: 2 },
                duration: 1_000,
                drift_rate: 0.05,
                seed: 3,
                ..OpsConfig::default()
            },
            &Telemetry {
                registry: registry.clone(),
                ..Telemetry::off()
            },
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ops.drift_events"), Some(report.drift_events));
        assert_eq!(snap.counter("ops.checks"), Some(report.checks));
        assert_eq!(
            snap.counter("ops.soc.checks_run"),
            Some(report.checks),
            "soc engine counters surface under ops.soc.*"
        );
        assert_eq!(snap.span_count("pipeline/ops"), Some(1));
    }

    #[test]
    fn equal_seed_event_driven_fingerprints_match_across_worker_counts() {
        let catalog = ubuntu::catalog();
        let base = OpsConfig {
            engine: MonitorEngine::EventDriven { workers: 1 },
            duration: 1_000,
            drift_rate: 0.05,
            seed: 7,
            ..OpsConfig::default()
        };
        let mut fingerprints = Vec::new();
        for workers in [1, 2, 4] {
            let mut host = compliant_host(&catalog);
            let registry = vdo_obs::Registry::new();
            OperationsPhase::new(&catalog).run(
                &mut host,
                &OpsConfig {
                    engine: MonitorEngine::EventDriven { workers },
                    ..base
                },
                &Telemetry {
                    registry: registry.clone(),
                    ..Telemetry::off()
                },
            );
            fingerprints.push(registry.snapshot().deterministic_fingerprint());
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[1], fingerprints[2]);
    }

    #[test]
    fn traced_event_driven_incidents_inherit_soc_traces() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let journal = Journal::new();
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                engine: MonitorEngine::EventDriven { workers: 2 },
                duration: 1_500,
                drift_rate: 0.05,
                seed: 3,
                ..OpsConfig::default()
            },
            &Telemetry {
                journal: journal.clone(),
                trace_seed: 21,
                ..Telemetry::off()
            },
        );
        assert!(!report.incidents.is_empty());
        let snap = journal.snapshot();
        for i in &report.incidents {
            let t = i.trace.expect("soc traces map onto ops incidents");
            let root = snap.root_event(t.trace_id).expect("root resolves");
            assert_eq!(root.name, "requirement.ingested");
        }
        assert!(!snap.events_named("soc.detection").is_empty());
    }

    #[test]
    fn traced_polling_incidents_resolve_to_catalogue_rules() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let journal = Journal::new();
        let report = OperationsPhase::new(&catalog).run(
            &mut host,
            &OpsConfig {
                duration: 1_500,
                drift_rate: 0.05,
                monitor_period: Some(5),
                seed: 3,
                ..OpsConfig::default()
            },
            &Telemetry {
                journal: journal.clone(),
                trace_seed: 21,
                ..Telemetry::off()
            },
        );
        assert!(!report.incidents.is_empty());
        let snap = journal.snapshot();
        let rule_roots: Vec<_> = catalog
            .iter()
            .map(|e| TraceContext::root(21, e.spec().finding_id()).trace_id)
            .collect();
        for i in &report.incidents {
            let t = i.trace.expect("traced polling stamps incidents");
            assert!(
                rule_roots.contains(&t.trace_id),
                "incident trace id {} is a catalogue requirement root",
                t.trace_id
            );
            assert_eq!(
                snap.root_event(t.trace_id).map(|e| e.name),
                Some("requirement.ingested")
            );
        }
        assert!(!snap.events_named("ops.incident").is_empty());
        assert!(!snap.events_named("ops.remediated").is_empty());
        assert!(!snap.events_named("core.enforce").is_empty());
    }

    #[test]
    fn event_driven_beats_polling_at_equal_seed() {
        let catalog = ubuntu::catalog();
        let base = OpsConfig {
            duration: 2_000,
            drift_rate: 0.05,
            monitor_period: Some(10),
            audit_period: 500,
            seed: 7,
            ..OpsConfig::default()
        };
        let mut polled_host = compliant_host(&catalog);
        let polled = OperationsPhase::new(&catalog).run(&mut polled_host, &base, &Telemetry::off());
        let mut event_host = compliant_host(&catalog);
        let eventful = OperationsPhase::new(&catalog).run(
            &mut event_host,
            &OpsConfig {
                engine: MonitorEngine::EventDriven { workers: 1 },
                ..base
            },
            &Telemetry::off(),
        );
        // Equal seed ⇒ identical drift streams, so the comparison is
        // apples to apples: same violations, different detection engines.
        assert_eq!(polled.drift_events, eventful.drift_events);
        assert!(
            eventful.mean_detection_latency() < polled.mean_detection_latency(),
            "event-driven {} vs polling {}",
            eventful.mean_detection_latency(),
            polled.mean_detection_latency()
        );
        assert!(
            eventful.exposure() <= polled.exposure(),
            "event-driven exposure {} vs polling {}",
            eventful.exposure(),
            polled.exposure()
        );
    }
}
