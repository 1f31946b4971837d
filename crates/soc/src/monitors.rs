//! Per-host incremental monitors driven by bus events.
//!
//! Three detector families subscribe to the bus, mirroring the three
//! verification layers of the reproduced stack:
//!
//! * **STIG re-checks** — on `DriftApplied`/`ConfigChanged`/`SloAlert`
//!   the worker that owns the host's shard brings the host's cached
//!   verdicts up to date, re-checking only the rules whose keys drift
//!   wrote since the host's last check; every rule's verdict is one
//!   follow-up event for the monitors below (see the engine module);
//! * **temporal patterns** — [`ComplianceUniversality`] is an *owned*
//!   streaming `A[] compliant` monitor implementing
//!   [`vdo_temporal::PatternMonitor`], fed by the host's check verdicts
//!   (the catalogue's observer monitors borrow their observer and
//!   bound propositions, which a long-lived per-host monitor registry
//!   cannot hold);
//! * **TEARS guarded assertions** — [`TearsHostMonitor`] holds the
//!   newest value of each signal in a host's `SignalTick` telemetry and
//!   streams it through [`vdo_tears::OwnedGaMonitor`]. The engine parses
//!   the assertion once and every host's monitor shares it through an
//!   `Arc`, so a large fleet keeps one copy of its expression trees
//!   rather than one per host.
//!
//! All three report [`Detection`]s, which the remediation dispatcher
//! turns into incidents.

use std::sync::Arc;

use vdo_core::CheckStatus;
use vdo_tears::{GaReport, GuardedAssertion, OwnedGaMonitor};
use vdo_temporal::PatternMonitor;
use vdo_trace::TraceContext;

use crate::event::HostId;

/// What class of monitor raised a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectionKind {
    /// A STIG catalogue rule failed on re-check.
    Stig,
    /// A TEARS guarded assertion confirmed a violation.
    Tears,
}

impl std::fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DetectionKind::Stig => "stig",
            DetectionKind::Tears => "tears",
        })
    }
}

/// One monitor finding. The engine merges a tick's findings by the
/// `(shard, seq)` stamp of the event that triggered them, keeping the
/// order that event emitted them in (a re-check emits its failing rules
/// in finding-id order, a TEARS monitor its violations in activation
/// order) — the key that makes the merged detection stream independent
/// of worker scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Shard of the triggering event.
    pub shard: usize,
    /// Sequence number of the triggering event within its shard.
    pub seq: u64,
    /// Affected host.
    pub host: HostId,
    /// The failing rule's catalogue index for a STIG re-check; `None`
    /// for the engine's TEARS assertion. The finding id is resolved
    /// only where an incident or the journal names it.
    pub rule: Option<usize>,
    /// Tick the violation entered the system (drift tick / activation
    /// tick).
    pub introduced_at: u64,
    /// Tick the monitor confirmed it.
    pub detected_at: u64,
    /// Causal context when tracing is on: a child of the originating
    /// requirement's root trace, so the incident chain resolves back to
    /// the catalogue rule.
    pub trace: Option<TraceContext>,
}

/// Owned streaming monitor for `A[] compliant` over a host's
/// check-result stream. Implements the same latching prefix semantics
/// as the catalogue's Globally / Universality monitor: `Fail` latches on the
/// first non-compliant observation, the prefix verdict is otherwise
/// `Incomplete`, and finishing a never-failed stream yields `Pass`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComplianceUniversality {
    observed: u64,
    failed_at: Option<u64>,
}

impl ComplianceUniversality {
    /// Fresh monitor with no observations.
    #[must_use]
    pub fn new() -> Self {
        ComplianceUniversality::default()
    }

    /// Tick index (0-based observation count) of the first violation.
    #[must_use]
    pub fn failed_at(&self) -> Option<u64> {
        self.failed_at
    }

    /// Number of observations fed so far.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

impl PatternMonitor<bool> for ComplianceUniversality {
    fn observe(&mut self, state: &bool) -> CheckStatus {
        let t = self.observed;
        self.observed += 1;
        if self.failed_at.is_none() && !*state {
            self.failed_at = Some(t);
        }
        self.verdict()
    }

    fn verdict(&self) -> CheckStatus {
        if self.failed_at.is_some() {
            CheckStatus::Fail
        } else {
            CheckStatus::Incomplete
        }
    }

    fn finish(&mut self) -> CheckStatus {
        if self.failed_at.is_some() {
            CheckStatus::Fail
        } else {
            CheckStatus::Pass
        }
    }
}

/// Streams one host's telemetry through a TEARS guarded assertion.
///
/// The G/A expression language reads only the newest tick, so the
/// monitor keeps one sample-and-hold slot per signal name instead of the
/// host's whole signal history, and feeds it to an [`OwnedGaMonitor`];
/// each `SignalTick` event updates the slots it names and advances the
/// monitor by one tick. Verdicts equal a [`vdo_tears::GaMonitor`] run
/// over the full [`vdo_tears::SignalTrace`] (property-tested).
#[derive(Debug, Clone)]
pub struct TearsHostMonitor {
    latest: Vec<(&'static str, f64)>,
    ticks: u64,
    monitor: OwnedGaMonitor,
}

impl TearsHostMonitor {
    /// Starts monitoring `ga` (owned, or shared with other hosts'
    /// monitors) with no samples seen.
    #[must_use]
    pub fn new(ga: impl Into<Arc<GuardedAssertion>>) -> Self {
        TearsHostMonitor {
            latest: Vec::new(),
            ticks: 0,
            monitor: OwnedGaMonitor::new(ga),
        }
    }

    /// Feeds one tick of named signal samples (signals not named hold
    /// their last value); returns the activation ticks of any violations
    /// confirmed this tick.
    pub fn observe(&mut self, signals: &[(&'static str, f64)]) -> Vec<u64> {
        for &(name, value) in signals {
            match self.latest.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 = value,
                None => self.latest.push((name, value)),
            }
        }
        self.ticks += 1;
        let latest = &self.latest;
        self.monitor
            .observe_values(&|name: &str| latest.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
    }

    /// The monitored assertion's name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.monitor.assertion().name()
    }

    /// Ticks observed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The assertion's report so far (see [`OwnedGaMonitor::report`]).
    #[must_use]
    pub fn report(&self) -> GaReport {
        self.monitor.report()
    }
}

/// All incremental monitor state for one host, owned by its shard.
#[derive(Debug, Clone)]
pub struct HostMonitors {
    /// `A[] compliant` over the host's check results.
    pub compliance: ComplianceUniversality,
    /// Optional guarded-assertion monitor over the host's telemetry.
    pub tears: Option<TearsHostMonitor>,
}

impl HostMonitors {
    /// Monitors for a host, with TEARS attached when `ga` is given; the
    /// assertion is shared, not copied.
    #[must_use]
    pub fn new(ga: Option<Arc<GuardedAssertion>>) -> Self {
        HostMonitors {
            compliance: ComplianceUniversality::new(),
            tears: ga.map(TearsHostMonitor::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_specpat::{ObserverAutomaton, PatternKind, Scope, SpecPattern};
    use vdo_temporal::{Semantics, Trace};

    #[test]
    fn compliance_monitor_matches_global_universality() {
        // The owned streaming monitor must agree with the catalogue's
        // Globally / Universality monitor under both semantics on every
        // prefix.
        let streams: [&[bool]; 4] = [
            &[true, true, true],
            &[true, false, true],
            &[false],
            &[true, true, false, false, true],
        ];
        let pattern = SpecPattern::new(Scope::Globally, PatternKind::universality("compliant"));
        let observer = ObserverAutomaton::for_pattern(&pattern).expect("observer");
        let compliant = |c: &bool| CheckStatus::from(*c);
        let catalogue = || {
            observer
                .monitor(&[("compliant", &compliant)])
                .expect("bound")
        };
        for bits in streams {
            let mut m = ComplianceUniversality::new();
            for (i, &b) in bits.iter().enumerate() {
                let verdict = m.observe(&b);
                let prefix: Trace<bool> = Trace::from_states(bits[..=i].iter().copied());
                assert_eq!(
                    verdict,
                    catalogue().evaluate(&prefix, Semantics::Prefix),
                    "prefix {:?}",
                    &bits[..=i]
                );
            }
            let whole: Trace<bool> = Trace::from_states(bits.iter().copied());
            assert_eq!(
                m.finish(),
                catalogue().evaluate(&whole, Semantics::Complete)
            );
        }
    }

    #[test]
    fn compliance_monitor_records_first_failure_tick() {
        let mut m = ComplianceUniversality::new();
        for b in [true, true, false, true, false] {
            m.observe(&b);
        }
        assert_eq!(m.failed_at(), Some(2));
        assert_eq!(m.observed(), 5);
    }

    #[test]
    fn tears_monitor_flags_missing_lockout() {
        let ga = GuardedAssertion::parse(
            r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#,
        )
        .unwrap();
        let mut m = TearsHostMonitor::new(ga);
        // Burst at tick 1, never answered: the window (ticks 1..=3)
        // closes at tick 3.
        let quiet: &[(&str, f64)] = &[("failed_logins", 0.0), ("lockout", 0.0)];
        let burst: &[(&str, f64)] = &[("failed_logins", 4.0), ("lockout", 0.0)];
        assert!(m.observe(quiet).is_empty());
        assert!(m.observe(burst).is_empty());
        assert!(m.observe(quiet).is_empty());
        assert_eq!(
            m.observe(quiet),
            vec![1],
            "violation confirmed at window close"
        );
        assert_eq!(m.name(), "lockout");
        assert_eq!(m.ticks(), 4);
    }

    #[test]
    fn tears_monitor_accepts_timely_lockout() {
        let ga = GuardedAssertion::parse(
            r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#,
        )
        .unwrap();
        let mut m = TearsHostMonitor::new(ga);
        let burst: &[(&str, f64)] = &[("failed_logins", 4.0), ("lockout", 0.0)];
        let locked: &[(&str, f64)] = &[("failed_logins", 0.0), ("lockout", 1.0)];
        assert!(m.observe(burst).is_empty());
        assert!(m.observe(locked).is_empty());
        assert!(m.observe(locked).is_empty());
        assert!(m.observe(locked).is_empty());
    }
}
