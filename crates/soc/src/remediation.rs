//! Remediation dispatch: bounded retries, exponential backoff, dead
//! letters.
//!
//! Detections become [`RemediationTask`]s. Each attempt may fail (the
//! engine injects seeded faults to model flaky remediation channels —
//! an agent that is unreachable, a package mirror that times out); a
//! failed attempt is rescheduled `backoff_base * 2^attempt` ticks later
//! (saturating, so very long retry chains park at the end of time),
//! and after `max_retries` rescheduled attempts the task is moved to the
//! dead-letter incident queue for a human.
//!
//! Fault rolls are a pure hash of `(seed, host, rule, attempt)` — not a
//! draw from a shared RNG stream — so the outcome of each attempt is
//! independent of the order tasks are processed in, which keeps
//! multi-worker runs byte-identical to single-worker runs.

use std::collections::BTreeMap;

use serde::Serialize;
use vdo_obs::hash::{chance, fnv1a, mix64, FNV_OFFSET};
use vdo_trace::TraceContext;

use crate::event::HostId;
use crate::monitors::DetectionKind;

/// Retry policy for the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemediationConfig {
    /// Rescheduled attempts after the first before dead-lettering.
    pub max_retries: u32,
    /// Backoff for attempt `n` (0-based) is `backoff_base * 2^n` ticks,
    /// saturating at `u64::MAX` instead of overflowing.
    pub backoff_base: u64,
    /// Probability an attempt fails (seeded fault injection).
    pub fault_rate: f64,
}

impl Default for RemediationConfig {
    fn default() -> Self {
        RemediationConfig {
            max_retries: 3,
            backoff_base: 2,
            fault_rate: 0.0,
        }
    }
}

/// One remediation work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemediationTask {
    /// Host to repair.
    pub host: HostId,
    /// Failing catalogue rule that triggered the task.
    pub rule: String,
    /// Tick the violation entered the system.
    pub introduced_at: u64,
    /// Tick the violation was detected (task creation).
    pub detected_at: u64,
    /// 0-based attempt counter.
    pub attempt: u32,
    /// Causal context inherited from the detection, when tracing is on.
    pub trace: Option<TraceContext>,
}

/// A task abandoned after exhausting its retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The abandoned task (its `attempt` is the number of failures).
    pub task: RemediationTask,
    /// Tick at which the dispatcher gave up.
    pub abandoned_at: u64,
}

/// One entry of the engine's incident log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocIncident {
    /// Affected host.
    pub host: HostId,
    /// Rule or assertion that fired.
    pub rule: String,
    /// Detector family.
    pub kind: DetectionKind,
    /// Tick the violation entered the system.
    pub introduced_at: u64,
    /// Tick it was detected.
    pub detected_at: u64,
    /// Tick remediation succeeded; `None` while open or dead-lettered
    /// (TEARS incidents are report-only and stay `None`).
    pub resolved_at: Option<u64>,
    /// Remediation attempts spent (0 for report-only incidents).
    pub attempts: u32,
    /// Causal context when tracing is on; its `trace_id` is the root
    /// trace of the requirement (catalogue rule / TEARS assertion) the
    /// incident violates.
    pub trace: Option<TraceContext>,
}

impl SocIncident {
    /// Detection latency in ticks.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.detected_at - self.introduced_at
    }
}

impl Serialize for SocIncident {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("host", (self.host as u64).to_value()),
            ("rule", self.rule.to_value()),
            ("kind", self.kind.to_string().to_value()),
            ("introduced_at", self.introduced_at.to_value()),
            ("detected_at", self.detected_at.to_value()),
            ("resolved_at", self.resolved_at.to_value()),
            ("attempts", (u64::from(self.attempts)).to_value()),
            ("trace", self.trace.to_value()),
        ])
    }
}

impl Serialize for DeadLetter {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("host", (self.task.host as u64).to_value()),
            ("rule", self.task.rule.to_value()),
            ("introduced_at", self.task.introduced_at.to_value()),
            ("detected_at", self.task.detected_at.to_value()),
            ("failed_attempts", (u64::from(self.task.attempt)).to_value()),
            ("abandoned_at", self.abandoned_at.to_value()),
            ("trace", self.task.trace.to_value()),
        ])
    }
}

/// The retry scheduler. Time is the engine's tick clock.
#[derive(Debug)]
pub struct Dispatcher {
    cfg: RemediationConfig,
    seed: u64,
    schedule: BTreeMap<u64, Vec<RemediationTask>>,
    dead: Vec<DeadLetter>,
}

impl Dispatcher {
    /// Creates a dispatcher with the given policy and fault seed.
    #[must_use]
    pub fn new(cfg: RemediationConfig, seed: u64) -> Self {
        Dispatcher {
            cfg,
            seed,
            schedule: BTreeMap::new(),
            dead: Vec::new(),
        }
    }

    /// The active policy.
    #[must_use]
    pub fn config(&self) -> &RemediationConfig {
        &self.cfg
    }

    /// Schedules `task` to run at `due` (clamped to be in the future of
    /// nothing — the engine drains with [`Dispatcher::take_due`]).
    pub fn schedule(&mut self, due: u64, task: RemediationTask) {
        self.schedule.entry(due).or_default().push(task);
    }

    /// Removes and returns every task due at or before `tick`, in
    /// `(due, insertion)` order.
    pub fn take_due(&mut self, tick: u64) -> Vec<RemediationTask> {
        let later = match tick.checked_add(1) {
            Some(next) => self.schedule.split_off(&next),
            None => BTreeMap::new(),
        };
        let due = std::mem::replace(&mut self.schedule, later);
        due.into_values().flatten().collect()
    }

    /// Whether the attempt this task is about to make fails, as a pure
    /// function of `(seed, host, rule, attempt)`.
    #[must_use]
    pub fn fault_injected(&self, task: &RemediationTask) -> bool {
        if self.cfg.fault_rate <= 0.0 {
            return false;
        }
        let mut h = fnv1a(FNV_OFFSET ^ self.seed, &task.host.to_le_bytes());
        h = fnv1a(h, task.rule.as_bytes());
        h = fnv1a(h, &task.attempt.to_le_bytes());
        chance(mix64(h), self.cfg.fault_rate)
    }

    /// Records a failed attempt at `tick`: reschedules with exponential
    /// backoff, or dead-letters once retries are exhausted. Returns
    /// `true` when the task was rescheduled, `false` when it died.
    pub fn on_failure(&mut self, mut task: RemediationTask, tick: u64) -> bool {
        if task.attempt >= self.cfg.max_retries {
            task.attempt += 1;
            self.dead.push(DeadLetter {
                task,
                abandoned_at: tick,
            });
            false
        } else {
            let backoff = self.backoff(task.attempt);
            task.attempt += 1;
            self.schedule(tick.saturating_add(backoff), task);
            true
        }
    }

    /// Ticks to wait after failed attempt `attempt` (0-based):
    /// `backoff_base * 2^attempt`, saturating at `u64::MAX` instead of
    /// overflowing, and at least one tick.
    fn backoff(&self, attempt: u32) -> u64 {
        self.cfg
            .backoff_base
            .saturating_mul(2u64.saturating_pow(attempt))
            .max(1)
    }

    /// Tasks abandoned so far.
    #[must_use]
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead
    }

    /// Consumes the dispatcher, yielding its dead letters.
    #[must_use]
    pub fn into_dead_letters(self) -> Vec<DeadLetter> {
        self.dead
    }

    /// Number of tasks still waiting on the schedule.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// The earliest tick with scheduled work, if any.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        self.schedule.keys().next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(host: HostId) -> RemediationTask {
        RemediationTask {
            host,
            rule: "V-100".into(),
            introduced_at: 3,
            detected_at: 3,
            attempt: 0,
            trace: None,
        }
    }

    #[test]
    fn take_due_drains_everything_at_or_before_the_tick() {
        let mut d = Dispatcher::new(RemediationConfig::default(), 0);
        d.schedule(2, task(0));
        d.schedule(5, task(1));
        d.schedule(9, task(2));
        let due = d.take_due(5);
        assert_eq!(due.iter().map(|t| t.host).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(d.pending(), 1);
        assert_eq!(d.next_due(), Some(9));
    }

    #[test]
    fn failures_back_off_exponentially_then_dead_letter() {
        let cfg = RemediationConfig {
            max_retries: 2,
            backoff_base: 3,
            fault_rate: 1.0,
        };
        let mut d = Dispatcher::new(cfg, 7);
        let mut tick = 10;
        assert!(d.on_failure(task(0), tick));
        assert_eq!(d.next_due(), Some(13), "first backoff = base");
        tick = 13;
        let t = d.take_due(tick).pop().unwrap();
        assert_eq!(t.attempt, 1);
        assert!(d.on_failure(t, tick));
        assert_eq!(d.next_due(), Some(19), "second backoff = 2*base");
        tick = 19;
        let t = d.take_due(tick).pop().unwrap();
        assert!(!d.on_failure(t, tick), "retries exhausted");
        assert_eq!(d.dead_letters().len(), 1);
        assert_eq!(d.dead_letters()[0].abandoned_at, 19);
        assert_eq!(d.dead_letters()[0].task.attempt, 3, "total failed attempts");
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn backoff_saturates_past_the_sixty_fourth_attempt() {
        let cfg = RemediationConfig {
            max_retries: 80,
            backoff_base: 3,
            fault_rate: 1.0,
        };
        let mut d = Dispatcher::new(cfg, 7);
        assert_eq!(d.backoff(0), 3);
        assert_eq!(d.backoff(10), 3 << 10);
        assert_eq!(d.backoff(63), u64::MAX, "3 * 2^63 saturates");
        assert_eq!(d.backoff(200), u64::MAX);
        let mut pending = vec![task(0)];
        let mut tick = 10;
        while let Some(t) = pending.pop() {
            let attempt = t.attempt;
            if d.on_failure(t, tick) {
                let due = d.next_due().unwrap();
                assert_eq!(due, tick.saturating_add(d.backoff(attempt)));
                tick = due;
                pending = d.take_due(tick);
                assert_eq!(pending.len(), 1);
            }
        }
        assert_eq!(tick, u64::MAX, "late retries land at the end of time");
        assert_eq!(d.pending(), 0);
        assert_eq!(d.dead_letters().len(), 1);
        assert_eq!(
            d.dead_letters()[0].task.attempt,
            81,
            "1 initial + 80 retries"
        );
    }

    #[test]
    fn fault_rolls_are_order_independent_and_seeded() {
        let cfg = RemediationConfig {
            fault_rate: 0.5,
            ..RemediationConfig::default()
        };
        let d1 = Dispatcher::new(cfg, 42);
        let d2 = Dispatcher::new(cfg, 42);
        let d3 = Dispatcher::new(cfg, 43);
        let rolls1: Vec<bool> = (0..64).map(|h| d1.fault_injected(&task(h))).collect();
        let rolls2: Vec<bool> = (0..64).map(|h| d2.fault_injected(&task(h))).collect();
        let rolls3: Vec<bool> = (0..64).map(|h| d3.fault_injected(&task(h))).collect();
        assert_eq!(rolls1, rolls2, "same seed, same rolls");
        assert_ne!(rolls1, rolls3, "different seed, different rolls");
        assert!(rolls1.iter().any(|&f| f) && rolls1.iter().any(|&f| !f));
    }

    #[test]
    fn zero_fault_rate_never_fails() {
        let d = Dispatcher::new(RemediationConfig::default(), 1);
        assert!((0..100).all(|h| !d.fault_injected(&task(h))));
    }
}
