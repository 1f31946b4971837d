//! The runtime monitoring loop — "reactive protection at operations".
//!
//! The Java prototype's `MonitoringLoop` periodically re-checks a temporal
//! property (`sleepMilliseconds()` between polls). This module reproduces
//! it on a **simulated clock**: the environment's ground-truth behaviour
//! is a [`Trace`] with one state per tick, and the loop samples it every
//! `period` ticks, feeding samples to a [`PatternMonitor`](crate::patterns::PatternMonitor).
//!
//! Two effects fall out exactly as in a real deployment and are measured
//! by experiments E4/A2:
//!
//! * **detection latency** — a violation occurring between polls is seen
//!   only at the next poll;
//! * **sampling blindness** — a glitch shorter than the polling period
//!   can be missed entirely.

use std::fmt;

use vdo_core::CheckStatus;

use crate::patterns::TemporalPattern;
use crate::trace::{Tick, Trace};

/// Error returned by [`MonitoringLoop::new`] when the polling period is
/// zero: the loop would re-sample the same tick forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPeriodError;

impl fmt::Display for ZeroPeriodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("polling period must be at least one tick")
    }
}

impl std::error::Error for ZeroPeriodError {}

/// Why a monitoring run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorOutcome {
    /// The pattern was violated; the payload is the tick of the poll that
    /// detected it.
    ViolationDetected(Tick),
    /// The pattern's verdict became conclusively `Pass` (only possible
    /// for time-bounded patterns).
    ConclusivePass(Tick),
    /// The trace ended with the verdict still open.
    EndOfTrace,
}

/// Everything one monitoring run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// How the run ended.
    pub outcome: MonitorOutcome,
    /// Number of polls performed.
    pub polls: u64,
    /// Verdict at the end of the run (prefix semantics).
    pub final_verdict: CheckStatus,
    /// Polling period used, in ticks.
    pub period: Tick,
}

impl MonitorReport {
    /// Detection latency relative to a known ground-truth violation tick:
    /// `detected_at - violation_tick`. `None` if the run did not detect a
    /// violation or the violation "happened" after detection (caller
    /// error).
    #[must_use]
    pub fn detection_latency(&self, violation_tick: Tick) -> Option<Tick> {
        match self.outcome {
            MonitorOutcome::ViolationDetected(at) if at >= violation_tick => {
                Some(at - violation_tick)
            }
            _ => None,
        }
    }
}

/// Periodically samples an environment trace and drives a pattern
/// monitor.
///
/// ```
/// use vdo_core::CheckStatus;
/// use vdo_temporal::{GlobalUniversality, MonitorOutcome, MonitoringLoop, Trace};
///
/// // Ground truth: service healthy until tick 6, then down.
/// let trace: Trace<bool> = (0..10).map(|t| t < 6).collect();
/// let pattern = GlobalUniversality::new(|up: &bool| CheckStatus::from(*up));
/// let report = MonitoringLoop::new(2).unwrap().run(&pattern, &trace);
/// assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(6));
/// assert_eq!(report.detection_latency(6), Some(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitoringLoop {
    period: Tick,
}

impl MonitoringLoop {
    /// Creates a loop polling every `period` ticks (the analogue of
    /// `sleepMilliseconds`).
    ///
    /// # Errors
    ///
    /// Returns [`ZeroPeriodError`] if `period` is zero, so configs built
    /// from user input surface a recoverable error instead of aborting
    /// the process.
    pub fn new(period: Tick) -> Result<Self, ZeroPeriodError> {
        if period == 0 {
            return Err(ZeroPeriodError);
        }
        Ok(MonitoringLoop { period })
    }

    /// The polling period in ticks.
    #[must_use]
    pub fn period(&self) -> Tick {
        self.period
    }

    /// Runs the pattern monitor over the ground-truth `trace`, sampling at
    /// ticks `0, period, 2·period, …`, stopping early on a decided
    /// verdict.
    pub fn run<S, P: TemporalPattern<S>>(&self, pattern: &P, trace: &Trace<S>) -> MonitorReport {
        let mut monitor = pattern.begin();
        let mut polls = 0;
        let mut tick = 0;
        while let Some(state) = trace.state_at(tick) {
            polls += 1;
            let verdict = monitor.observe(state);
            match verdict {
                CheckStatus::Fail => {
                    return MonitorReport {
                        outcome: MonitorOutcome::ViolationDetected(tick),
                        polls,
                        final_verdict: verdict,
                        period: self.period,
                    };
                }
                CheckStatus::Pass => {
                    return MonitorReport {
                        outcome: MonitorOutcome::ConclusivePass(tick),
                        polls,
                        final_verdict: verdict,
                        period: self.period,
                    };
                }
                CheckStatus::Incomplete => {}
            }
            tick += self.period;
        }
        MonitorReport {
            outcome: MonitorOutcome::EndOfTrace,
            polls,
            final_verdict: monitor.verdict(),
            period: self.period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{
        Eventually, GlobalResponseTimed, GlobalUniversality, GlobalUniversalityTimed,
    };

    fn up(threshold: u64) -> Trace<bool> {
        (0..20).map(|t| t < threshold).collect()
    }

    #[test]
    fn tight_polling_detects_at_violation_tick() {
        let pattern = GlobalUniversality::new(|b: &bool| CheckStatus::from(*b));
        let report = MonitoringLoop::new(1)
            .expect("nonzero period")
            .run(&pattern, &up(7));
        assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(7));
        assert_eq!(report.detection_latency(7), Some(0));
        assert_eq!(report.polls, 8);
    }

    #[test]
    fn coarse_polling_adds_latency() {
        let pattern = GlobalUniversality::new(|b: &bool| CheckStatus::from(*b));
        // Violation at tick 7; polls at 0,5,10 → detected at 10.
        let report = MonitoringLoop::new(5)
            .expect("nonzero period")
            .run(&pattern, &up(7));
        assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(10));
        assert_eq!(report.detection_latency(7), Some(3));
        assert_eq!(report.polls, 3);
    }

    #[test]
    fn short_glitch_can_be_missed() {
        // Down only at tick 3; polls every 2 ticks see 0,2,4,… — blind.
        let trace: Trace<bool> = (0..10).map(|t| t != 3).collect();
        let pattern = GlobalUniversality::new(|b: &bool| CheckStatus::from(*b));
        let report = MonitoringLoop::new(2)
            .expect("nonzero period")
            .run(&pattern, &trace);
        assert_eq!(report.outcome, MonitorOutcome::EndOfTrace);
        assert_eq!(report.final_verdict, CheckStatus::Incomplete);
    }

    #[test]
    fn conclusive_pass_for_bounded_pattern() {
        let trace: Trace<bool> = (0..20).map(|_| true).collect();
        let pattern = GlobalUniversalityTimed::new(|b: &bool| CheckStatus::from(*b), 4);
        let report = MonitoringLoop::new(1)
            .expect("nonzero period")
            .run(&pattern, &trace);
        assert_eq!(report.outcome, MonitorOutcome::ConclusivePass(4));
        assert_eq!(report.polls, 5);
    }

    #[test]
    fn eventually_pass_detected() {
        let trace: Trace<bool> = (0..10).map(|t| t == 6).collect();
        let pattern = Eventually::new(|b: &bool| CheckStatus::from(*b));
        let report = MonitoringLoop::new(3)
            .expect("nonzero period")
            .run(&pattern, &trace);
        assert_eq!(report.outcome, MonitorOutcome::ConclusivePass(6));
    }

    #[test]
    fn detection_latency_requires_detection() {
        let trace: Trace<bool> = (0..4).map(|_| true).collect();
        let pattern = GlobalUniversality::new(|b: &bool| CheckStatus::from(*b));
        let report = MonitoringLoop::new(1)
            .expect("nonzero period")
            .run(&pattern, &trace);
        assert_eq!(report.detection_latency(0), None);
    }

    #[test]
    fn sampled_response_monitoring_uses_poll_clock() {
        // NOTE: under sampling, the monitor's notion of time is *polls*,
        // not ticks; callers express bounds in poll units. A bound of 2
        // polls at period 5 means "response within ~10 ticks".
        let states: Trace<(bool, bool)> = Trace::from_states(vec![
            (true, false), // trigger at tick 0 (poll 0)
            (false, false),
            (false, false),
            (false, false),
            (false, false),
            (false, true), // response at tick 5 (poll 1)
        ]);
        let pattern = GlobalResponseTimed::new(
            |s: &(bool, bool)| CheckStatus::from(s.0),
            |s: &(bool, bool)| CheckStatus::from(s.1),
            2,
        );
        let report = MonitoringLoop::new(5)
            .expect("nonzero period")
            .run(&pattern, &states);
        assert_eq!(report.outcome, MonitorOutcome::EndOfTrace);
        assert_eq!(report.final_verdict, CheckStatus::Incomplete);
    }

    #[test]
    fn zero_period_is_a_recoverable_error() {
        let err = MonitoringLoop::new(0).unwrap_err();
        assert_eq!(err, ZeroPeriodError);
        assert!(err.to_string().contains("polling period"));
    }
}
