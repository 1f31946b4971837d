//! Protection at operations: drift, detection, reaction.
//!
//! The operations phase runs the deployed host as a fleet of one on the
//! [`vdo_soc`] engine: seeded drift, detection under the configuration's
//! [`DetectionMode`](vdo_soc::DetectionMode), and repair through the
//! engine's remediation dispatcher. `Continuous` detection re-checks the
//! host on every drift event; `Periodic` detection is the paper's polling
//! monitor — the host-level instantiation of the `MonitoringLoop` idea —
//! plus its scheduled audit, and without a monitor (the unassisted
//! baseline) violations sit unnoticed until the next audit. Every
//! [`Incident`] carries its exact detection latency, and exposure counts
//! the ticks the host actually spent out of compliance.

use serde::Serialize;
use vdo_core::Catalog;
use vdo_soc::{
    DetectionKind, SocConfig, SocConfigError, SocEngine, SocHost, SocMetrics, SocTracing,
};
use vdo_temporal::Trace;
use vdo_trace::{Telemetry, TraceContext};

/// One detected-and-repaired compliance violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// Tick at which the drift event broke compliance.
    pub introduced_at: u64,
    /// Tick at which a monitor or audit detected it.
    pub detected_at: u64,
    /// `true` when found by a monitor (continuous, or a periodic
    /// monitor's tick), `false` by a scheduled audit alone.
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
    /// Rule verdicts checked: every rule per re-check trigger and per
    /// remediation.
    pub checks: u64,
    /// Ground-truth compliance per tick (`true` = compliant), suitable
    /// for post-hoc temporal-pattern evaluation (e.g. the catalogue's
    /// Globally / Universality monitor over the operations history).
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

/// Executes operations phases over a deployed host.
pub struct OperationsPhase<'a, E> {
    catalog: &'a Catalog<E>,
}

impl<'a, E: SocHost> OperationsPhase<'a, E> {
    /// Creates the phase runner over a compliance catalogue.
    #[must_use]
    pub fn new(catalog: &'a Catalog<E>) -> Self {
        OperationsPhase { catalog }
    }

    /// Runs the phase on the SOC engine over a fleet of one, mutating
    /// the deployed host in place.
    ///
    /// The phase is timed under the `pipeline/ops` span and records the
    /// `ops.*` counters (`drift_events`, `checks`, `incidents`,
    /// `noncompliant_ticks`) in `telemetry.registry`; the engine's own
    /// counters surface as `ops.soc.*`. An enabled `telemetry.journal`
    /// also records the phase's causal chain: every incident carries a
    /// [`TraceContext`] rooted at `TraceContext::root(telemetry.trace_seed,
    /// finding_id)` — the same roots the scenario mints at requirement
    /// ingestion — and detections and remediations become journal
    /// events. [`Telemetry::off`] records nothing and stamps no traces.
    ///
    /// # Errors
    /// When [`SocConfig::validate`] rejects `config`, or its TEARS
    /// assertion does not parse.
    pub fn run(
        &self,
        host: &mut E,
        config: &SocConfig,
        telemetry: &Telemetry,
    ) -> Result<OpsReport, SocConfigError> {
        let engine = SocEngine::new(self.catalog, config.clone())?;
        let obs = &telemetry.registry;
        let _span = obs.span("pipeline/ops");
        let metrics = if obs.is_enabled() {
            SocMetrics::in_registry(obs, "ops.soc")
        } else {
            SocMetrics::new()
        };
        let tracing = if telemetry.journal.is_enabled() {
            SocTracing::new(telemetry.journal.clone(), telemetry.trace_seed)
        } else {
            SocTracing::disabled()
        };
        let soc = engine.run_traced(std::slice::from_mut(host), &metrics, &tracing);
        let report = OpsReport {
            incidents: soc
                .incidents
                .iter()
                .filter(|i| i.kind == DetectionKind::Stig)
                .map(|i| Incident {
                    introduced_at: i.introduced_at,
                    detected_at: i.detected_at,
                    found_by_monitor: config.detection.monitors_at(i.detected_at),
                    trace: i.trace,
                })
                .collect(),
            drift_events: soc.drift_events,
            noncompliant_ticks: soc.noncompliant_host_ticks,
            duration: soc.duration,
            checks: soc.metrics.checks_run,
            compliance_trace: soc.fleet_compliance_trace,
        };
        obs.counter("ops.drift_events").add(report.drift_events);
        obs.counter("ops.checks").add(report.checks);
        obs.counter("ops.incidents")
            .add(report.incidents.len() as u64);
        obs.counter("ops.noncompliant_ticks")
            .add(report.noncompliant_ticks);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_core::RemediationPlanner;
    use vdo_host::UnixHost;
    use vdo_soc::DetectionMode;
    use vdo_stigs::ubuntu;
    use vdo_trace::Journal;

    fn compliant_host(catalog: &Catalog<UnixHost>) -> UnixHost {
        let mut h = UnixHost::baseline_ubuntu_1804();
        RemediationPlanner::default().run(catalog, &mut h);
        h
    }

    /// A one-worker phase of `duration` ticks.
    fn config(duration: u64, drift_rate: f64, seed: u64, detection: DetectionMode) -> SocConfig {
        SocConfig {
            duration,
            drift_rate,
            workers: 1,
            seed,
            detection,
            ..SocConfig::default()
        }
    }

    fn periodic(monitor: Option<u64>, audit: u64) -> DetectionMode {
        DetectionMode::Periodic { monitor, audit }
    }

    fn run(host: &mut UnixHost, config: &SocConfig, telemetry: &Telemetry) -> OpsReport {
        let catalog = ubuntu::catalog();
        OperationsPhase::new(&catalog)
            .run(host, config, telemetry)
            .expect("valid config")
    }

    #[test]
    fn quiet_operations_produce_no_incidents() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let cfg = config(200, 0.0, 0, periodic(Some(10), 250));
        let report = run(&mut host, &cfg, &Telemetry::off());
        assert!(report.incidents.is_empty());
        assert_eq!(report.drift_events, 0);
        assert_eq!(report.exposure(), 0.0);
    }

    #[test]
    fn zero_monitor_period_is_a_typed_error() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let cfg = config(200, 0.05, 0, periodic(Some(0), 250));
        assert_eq!(
            OperationsPhase::new(&catalog).run(&mut host, &cfg, &Telemetry::off()),
            Err(SocConfigError::ZeroMonitorPeriod)
        );
    }

    #[test]
    fn monitored_operations_detect_and_repair() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let cfg = config(2_000, 0.05, 3, periodic(Some(5), 500));
        let report = run(&mut host, &cfg, &Telemetry::off());
        assert!(report.drift_events > 0);
        assert!(
            !report.incidents.is_empty(),
            "drift at 5% over 2k ticks must break something"
        );
        for i in &report.incidents {
            assert!(
                i.latency() < 5,
                "monitor period bounds latency, got {}",
                i.latency()
            );
            assert!(i.found_by_monitor);
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
        let cfg = config(2_000, 0.05, 3, periodic(None, 400));
        let report = run(&mut host, &cfg, &Telemetry::off());
        assert!(!report.incidents.is_empty());
        assert!(report.incidents.iter().all(|i| !i.found_by_monitor));
        assert!(report.incidents.iter().all(|i| i.detected_at % 400 == 0));
    }

    #[test]
    fn monitoring_beats_audit_on_latency_and_exposure() {
        let catalog = ubuntu::catalog();
        let monitored_cfg = config(3_000, 0.03, 11, periodic(Some(10), 500));
        let mut h1 = compliant_host(&catalog);
        let monitored = run(&mut h1, &monitored_cfg, &Telemetry::off());
        let mut h2 = compliant_host(&catalog);
        let audited_cfg = SocConfig {
            detection: periodic(None, 500),
            ..monitored_cfg
        };
        let audited = run(&mut h2, &audited_cfg, &Telemetry::off());
        assert_eq!(monitored.drift_events, audited.drift_events);
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
        use vdo_specpat::{ObserverAutomaton, PatternKind, Scope, SpecPattern};
        use vdo_temporal::{PatternMonitor, Semantics};

        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let cfg = config(1_000, 0.05, 3, periodic(Some(5), 250));
        let report = run(&mut host, &cfg, &Telemetry::off());
        assert_eq!(report.compliance_trace.len(), 1_000);
        // "Globally compliant" over the operations history fails exactly
        // when the host ever spent a tick out of compliance.
        let always_compliant =
            SpecPattern::new(Scope::Globally, PatternKind::universality("compliant"));
        let observer = ObserverAutomaton::for_pattern(&always_compliant).expect("observer");
        let compliant = |c: &bool| CheckStatus::from(*c);
        let verdict = observer
            .monitor(&[("compliant", &compliant)])
            .expect("bound")
            .evaluate(&report.compliance_trace, Semantics::Complete);
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
        let cfg = config(500, 0.1, 9, periodic(Some(10), 250));
        let mut a = compliant_host(&catalog);
        let mut b = compliant_host(&catalog);
        let ra = run(&mut a, &cfg, &Telemetry::off());
        let rb = run(&mut b, &cfg, &Telemetry::off());
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn windows_hosts_are_first_class_drift_targets() {
        let catalog = vdo_stigs::win10::catalog();
        let mut host = vdo_host::WindowsHost::baseline_win10();
        RemediationPlanner::default().run(&catalog, &mut host);
        let cfg = config(2_000, 0.05, 4, periodic(Some(10), 500));
        let report = OperationsPhase::new(&catalog)
            .run(&mut host, &cfg, &Telemetry::off())
            .expect("valid config");
        assert!(report.drift_events > 0);
        assert!(
            !report.incidents.is_empty(),
            "audit-policy drift must be caught"
        );
        assert!(report.incidents.iter().all(|i| i.latency() < 10));
    }

    #[test]
    fn event_driven_engine_detects_on_the_drift_tick() {
        let catalog = ubuntu::catalog();
        let mut host = compliant_host(&catalog);
        let cfg = SocConfig {
            workers: 2,
            ..config(2_000, 0.05, 3, DetectionMode::Continuous)
        };
        let report = run(&mut host, &cfg, &Telemetry::off());
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
        let cfg = SocConfig {
            workers: 2,
            ..config(1_000, 0.05, 3, DetectionMode::Continuous)
        };
        let report = run(
            &mut host,
            &cfg,
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
        let mut fingerprints = Vec::new();
        for workers in [1, 2, 4] {
            let mut host = compliant_host(&catalog);
            let registry = vdo_obs::Registry::new();
            let cfg = SocConfig {
                workers,
                ..config(1_000, 0.05, 7, DetectionMode::Continuous)
            };
            run(
                &mut host,
                &cfg,
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
        let cfg = SocConfig {
            workers: 2,
            ..config(1_500, 0.05, 3, DetectionMode::Continuous)
        };
        let report = run(
            &mut host,
            &cfg,
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
        let cfg = config(1_500, 0.05, 3, periodic(Some(5), 250));
        let report = run(
            &mut host,
            &cfg,
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
        assert_eq!(
            snap.events_named("soc.detection").len(),
            report.incidents.len()
        );
        assert!(!snap.events_named("soc.remediation.resolved").is_empty());
    }

    #[test]
    fn event_driven_beats_polling_at_equal_seed() {
        let catalog = ubuntu::catalog();
        let polling = config(2_000, 0.05, 7, periodic(Some(10), 500));
        let mut polled_host = compliant_host(&catalog);
        let polled = run(&mut polled_host, &polling, &Telemetry::off());
        let mut event_host = compliant_host(&catalog);
        let eventful = run(
            &mut event_host,
            &SocConfig {
                detection: DetectionMode::Continuous,
                ..polling
            },
            &Telemetry::off(),
        );
        // Equal seed ⇒ identical drift history, so the comparison is
        // apples to apples: same violations, different detection policy.
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
