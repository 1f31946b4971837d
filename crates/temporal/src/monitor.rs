//! Incremental pattern monitors and the runtime monitoring loop —
//! "reactive protection at operations".
//!
//! The Java prototype's `MonitoringLoop` periodically re-checks a temporal
//! property (`sleepMilliseconds()` between polls). This module reproduces
//! it on a **simulated clock**: the environment's ground-truth behaviour
//! is a [`Trace`] with one state per tick, and the loop samples it every
//! `period` ticks, feeding samples to a [`PatternMonitor`]. Every
//! catalogue entry with an observer automaton gets its monitor from
//! `vdo_specpat::ObserverAutomaton::monitor`.
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

use crate::ltl::Semantics;
use crate::trace::{Tick, Trace};

/// An incremental evaluator fed one state per tick.
///
/// Verdicts are *monotone*: once `Pass` or `Fail` is returned, every
/// later call returns the same verdict (monitors latch).
/// [`finish`](PatternMonitor::finish) closes the trace and returns the
/// [`Semantics::Complete`] verdict.
pub trait PatternMonitor<S: ?Sized> {
    /// Feeds the state observed at the next tick; returns the current
    /// prefix verdict.
    fn observe(&mut self, state: &S) -> CheckStatus;

    /// Current prefix verdict without feeding a state.
    fn verdict(&self) -> CheckStatus;

    /// Declares the trace complete and returns the final verdict under
    /// [`Semantics::Complete`].
    fn finish(&mut self) -> CheckStatus;

    /// Feeds a whole trace and returns its verdict under `mode`.
    fn evaluate(mut self, trace: &Trace<S>, mode: Semantics) -> CheckStatus
    where
        Self: Sized,
        S: Sized,
    {
        for s in trace.states() {
            self.observe(s);
        }
        match mode {
            Semantics::Prefix => self.verdict(),
            Semantics::Complete => self.finish(),
        }
    }
}

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
/// monitor (see `vdo_specpat::ObserverAutomaton::monitor` for a run over
/// a catalogue entry).
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

    /// Runs `monitor` over the ground-truth `trace`, sampling at ticks
    /// `0, period, 2·period, …`, stopping early on a decided verdict.
    pub fn run<S, M: PatternMonitor<S>>(&self, mut monitor: M, trace: &Trace<S>) -> MonitorReport {
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

    /// A monitor over states that already are verdicts: it reports what
    /// it observes, so each test scripts the verdict stream directly.
    struct Echo(CheckStatus);

    impl PatternMonitor<CheckStatus> for Echo {
        fn observe(&mut self, state: &CheckStatus) -> CheckStatus {
            self.0 = *state;
            self.0
        }
        fn verdict(&self) -> CheckStatus {
            self.0
        }
        fn finish(&mut self) -> CheckStatus {
            self.0
        }
    }

    fn run(period: Tick, trace: &Trace<CheckStatus>) -> MonitorReport {
        MonitoringLoop::new(period)
            .expect("nonzero period")
            .run(Echo(CheckStatus::Incomplete), trace)
    }

    /// Undecided before `at`, `then` from `at` on, over 20 ticks.
    fn decided_at(at: u64, then: CheckStatus) -> Trace<CheckStatus> {
        (0..20)
            .map(|t| {
                if t < at {
                    CheckStatus::Incomplete
                } else {
                    then
                }
            })
            .collect()
    }

    #[test]
    fn tight_polling_detects_at_violation_tick() {
        let report = run(1, &decided_at(7, CheckStatus::Fail));
        assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(7));
        assert_eq!(report.detection_latency(7), Some(0));
        assert_eq!(report.polls, 8);
    }

    #[test]
    fn coarse_polling_adds_latency() {
        // Violation at tick 7; polls at 0,5,10 → detected at 10.
        let report = run(5, &decided_at(7, CheckStatus::Fail));
        assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(10));
        assert_eq!(report.detection_latency(7), Some(3));
        assert_eq!(report.polls, 3);
    }

    #[test]
    fn short_glitch_can_be_missed() {
        // Decided only at tick 3; polls every 2 ticks see 0,2,4,… — blind.
        let trace: Trace<CheckStatus> = (0..10)
            .map(|t| {
                if t == 3 {
                    CheckStatus::Fail
                } else {
                    CheckStatus::Incomplete
                }
            })
            .collect();
        let report = run(2, &trace);
        assert_eq!(report.outcome, MonitorOutcome::EndOfTrace);
        assert_eq!(report.final_verdict, CheckStatus::Incomplete);
        assert_eq!(report.polls, 5);
    }

    #[test]
    fn conclusive_pass_stops_the_loop() {
        let report = run(1, &decided_at(4, CheckStatus::Pass));
        assert_eq!(report.outcome, MonitorOutcome::ConclusivePass(4));
        assert_eq!(report.polls, 5);
    }

    #[test]
    fn detection_latency_requires_detection() {
        let report = run(1, &decided_at(20, CheckStatus::Fail));
        assert_eq!(report.outcome, MonitorOutcome::EndOfTrace);
        assert_eq!(report.detection_latency(0), None);
    }

    #[test]
    fn evaluate_feeds_the_whole_trace() {
        let trace = decided_at(3, CheckStatus::Fail);
        let echo = || Echo(CheckStatus::Incomplete);
        assert_eq!(
            echo().evaluate(&trace, Semantics::Prefix),
            CheckStatus::Fail
        );
        let empty: Trace<CheckStatus> = Trace::new();
        assert_eq!(
            echo().evaluate(&empty, Semantics::Complete),
            CheckStatus::Incomplete
        );
    }

    #[test]
    fn zero_period_is_a_recoverable_error() {
        let err = MonitoringLoop::new(0).unwrap_err();
        assert_eq!(err, ZeroPeriodError);
        assert!(err.to_string().contains("polling period"));
    }
}
