//! Guarded assertions and their evaluation.

use std::fmt;
use std::sync::Arc;

use vdo_core::CheckStatus;

use crate::expr::{Expr, ParseExprError};
use crate::signal::SignalTrace;

/// One independent guarded assertion:
/// *whenever `guard` holds, `assertion` must hold within `within` ticks*
/// (the window is inclusive; `within = 0` means "at the same tick").
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedAssertion {
    name: String,
    guard: Expr,
    assertion: Expr,
    within: u64,
}

/// Error from [`GuardedAssertion::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseGaError {
    /// Input does not match `ga "name": when … then … [within N]`.
    Malformed(String),
    /// The guard or assertion expression failed to parse.
    Expr(ParseExprError),
}

impl fmt::Display for ParseGaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGaError::Malformed(m) => write!(f, "malformed guarded assertion: {m}"),
            ParseGaError::Expr(e) => write!(f, "expression error: {e}"),
        }
    }
}

impl std::error::Error for ParseGaError {}

impl From<ParseExprError> for ParseGaError {
    fn from(e: ParseExprError) -> Self {
        ParseGaError::Expr(e)
    }
}

/// Result of evaluating one G/A over a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaReport {
    /// G/A name.
    pub name: String,
    /// Ticks at which the guard held.
    pub activations: u64,
    /// Activation ticks whose window elapsed without the assertion.
    pub violations: Vec<u64>,
    /// Activation ticks whose window ran past the end of the trace
    /// undecided.
    pub pending: Vec<u64>,
    /// Overall verdict: `Fail` on any violation, else `Incomplete` if
    /// anything is pending, else `Pass`.
    pub verdict: CheckStatus,
}

impl GuardedAssertion {
    /// Creates a G/A from parts.
    #[must_use]
    pub fn new(name: impl Into<String>, guard: Expr, assertion: Expr, within: u64) -> Self {
        GuardedAssertion {
            name: name.into(),
            guard,
            assertion,
            within,
        }
    }

    /// Parses the TEARS-style concrete syntax:
    ///
    /// ```text
    /// ga "name": when <guard expr> then <assertion expr> [within N]
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseGaError`] on malformed structure or expressions.
    pub fn parse(input: &str) -> Result<GuardedAssertion, ParseGaError> {
        let s = input.trim();
        let rest = s
            .strip_prefix("ga")
            .ok_or_else(|| ParseGaError::Malformed("missing 'ga' keyword".into()))?
            .trim_start();
        let rest = rest
            .strip_prefix('"')
            .ok_or_else(|| ParseGaError::Malformed("missing opening quote".into()))?;
        let (name, rest) = rest
            .split_once('"')
            .ok_or_else(|| ParseGaError::Malformed("missing closing quote".into()))?;
        let rest = rest
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| ParseGaError::Malformed("missing ':' after name".into()))?;
        let rest = rest
            .trim_start()
            .strip_prefix("when ")
            .ok_or_else(|| ParseGaError::Malformed("missing 'when'".into()))?;
        let (guard_text, rest) = rest
            .split_once(" then ")
            .ok_or_else(|| ParseGaError::Malformed("missing 'then'".into()))?;
        let (assert_text, within) = match rest.rsplit_once(" within ") {
            Some((a, n)) => {
                let w: u64 = n.trim().parse().map_err(|_| {
                    ParseGaError::Malformed(format!("invalid 'within' bound '{n}'"))
                })?;
                (a, w)
            }
            None => (rest, 0),
        };
        Ok(GuardedAssertion {
            name: name.to_string(),
            guard: Expr::parse(guard_text)?,
            assertion: Expr::parse(assert_text)?,
            within,
        })
    }

    /// The G/A name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The guard condition.
    #[must_use]
    pub fn guard(&self) -> &Expr {
        &self.guard
    }

    /// The asserted condition.
    #[must_use]
    pub fn assertion(&self) -> &Expr {
        &self.assertion
    }

    /// The response window in ticks (inclusive).
    #[must_use]
    pub fn within(&self) -> u64 {
        self.within
    }

    /// Evaluates the G/A over the whole trace.
    #[must_use]
    pub fn evaluate(&self, trace: &SignalTrace) -> GaReport {
        let n = trace.len();
        let mut activations = 0;
        let mut violations = Vec::new();
        let mut pending = Vec::new();
        for t in 0..n {
            if self.guard.eval(trace, t) != Some(true) {
                continue;
            }
            activations += 1;
            let deadline = t.saturating_add(self.within);
            let mut satisfied = false;
            for u in t..=deadline.min(n.saturating_sub(1)) {
                if self.assertion.eval(trace, u) == Some(true) {
                    satisfied = true;
                    break;
                }
            }
            if !satisfied {
                if deadline < n {
                    violations.push(t);
                } else {
                    pending.push(t);
                }
            }
        }
        let verdict = if !violations.is_empty() {
            CheckStatus::Fail
        } else if !pending.is_empty() {
            CheckStatus::Incomplete
        } else {
            CheckStatus::Pass
        };
        GaReport {
            name: self.name.clone(),
            activations,
            violations,
            pending,
            verdict,
        }
    }
}

/// Incremental (streaming) evaluator for one G/A — the operations-time
/// counterpart of the batch [`GuardedAssertion::evaluate`]: feed one
/// tick of signals at a time and learn about violations the moment a
/// window closes, instead of after the full log is on disk.
///
/// Produces verdicts identical to the batch evaluator on the same data
/// (property-tested below).
///
/// ```
/// use vdo_tears::{GaMonitor, GuardedAssertion, SignalTrace};
/// let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1 within 1"#).unwrap();
/// let mut monitor = GaMonitor::new(&ga);
/// let mut trace = SignalTrace::new();
/// trace.push_sample([("g", 1.0), ("a", 0.0)]);
/// monitor.observe(&trace);                 // window open
/// trace.push_sample([("g", 0.0), ("a", 1.0)]);
/// assert!(monitor.observe(&trace).is_empty()); // answered in time
/// assert!(monitor.report().violations.is_empty());
/// ```
pub struct GaMonitor<'a> {
    ga: &'a GuardedAssertion,
    core: MonitorCore,
}

/// The assertion-independent streaming state shared by [`GaMonitor`]
/// and [`OwnedGaMonitor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MonitorCore {
    now: u64,
    /// Activation ticks whose windows are still open and unanswered.
    pending: std::collections::VecDeque<u64>,
    activations: u64,
    violations: Vec<u64>,
}

impl MonitorCore {
    /// Advances one tick; `value` reads each signal's value at that
    /// tick.
    fn observe<F>(&mut self, ga: &GuardedAssertion, value: &F) -> Vec<u64>
    where
        F: Fn(&str) -> Option<f64> + ?Sized,
    {
        let t = self.now;
        self.now += 1;
        let mut new_violations = Vec::new();
        if ga.guard.eval_with(value) == Some(true) {
            self.activations += 1;
            self.pending.push_back(t);
        }
        if ga.assertion.eval_with(value) == Some(true) {
            // Satisfies every pending activation whose window reaches t —
            // all of them, since expired ones were already flushed.
            self.pending.clear();
        } else {
            // Flush activations whose deadline was this tick.
            while let Some(&a) = self.pending.front() {
                if a.saturating_add(ga.within) <= t {
                    self.pending.pop_front();
                    self.violations.push(a);
                    new_violations.push(a);
                } else {
                    break;
                }
            }
        }
        new_violations
    }

    fn report(&self, ga: &GuardedAssertion) -> GaReport {
        let verdict = if !self.violations.is_empty() {
            CheckStatus::Fail
        } else if !self.pending.is_empty() {
            CheckStatus::Incomplete
        } else {
            CheckStatus::Pass
        };
        GaReport {
            name: ga.name.clone(),
            activations: self.activations,
            violations: self.violations.clone(),
            pending: self.pending.iter().copied().collect(),
            verdict,
        }
    }
}

impl<'a> GaMonitor<'a> {
    /// Starts monitoring the given assertion.
    #[must_use]
    pub fn new(ga: &'a GuardedAssertion) -> Self {
        GaMonitor {
            ga,
            core: MonitorCore::default(),
        }
    }

    /// Feeds the trace state at the next tick; `trace` must contain the
    /// data up to and including the current tick (the monitor only reads
    /// the newest tick). Returns violations newly confirmed this tick.
    pub fn observe(&mut self, trace: &SignalTrace) -> Vec<u64> {
        let t = self.core.now;
        self.core.observe(self.ga, &|name| trace.value(name, t))
    }

    /// Current report: confirmed violations so far, pending activations
    /// as undecided, verdict per the usual trichotomy.
    #[must_use]
    pub fn report(&self) -> GaReport {
        self.core.report(self.ga)
    }
}

/// An owned variant of [`GaMonitor`] for long-lived monitor registries
/// (e.g. event-driven security-operations runtimes) where tying the
/// monitor's lifetime to a borrowed assertion is impractical.
///
/// Semantics are identical to [`GaMonitor`]: both delegate to the same
/// streaming core.
///
/// The assertion is held behind an [`Arc`], so a registry monitoring
/// one assertion on many streams (one monitor per host) parses it once
/// and shares it instead of deep-copying its expression trees per
/// monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedGaMonitor {
    ga: Arc<GuardedAssertion>,
    core: MonitorCore,
}

impl OwnedGaMonitor {
    /// Starts monitoring the given assertion: an owned
    /// [`GuardedAssertion`] or a shared `Arc<GuardedAssertion>`.
    #[must_use]
    pub fn new(ga: impl Into<Arc<GuardedAssertion>>) -> Self {
        OwnedGaMonitor {
            ga: ga.into(),
            core: MonitorCore::default(),
        }
    }

    /// The monitored assertion.
    #[must_use]
    pub fn assertion(&self) -> &GuardedAssertion {
        &self.ga
    }

    /// See [`GaMonitor::observe`].
    pub fn observe(&mut self, trace: &SignalTrace) -> Vec<u64> {
        let t = self.core.now;
        self.core.observe(&self.ga, &|name| trace.value(name, t))
    }

    /// Like [`observe`](Self::observe), for callers that keep only each
    /// signal's newest value instead of a whole [`SignalTrace`]: `value`
    /// maps a signal name to its value at the next tick (sample-and-hold,
    /// `None` before the signal's first sample).
    pub fn observe_values<F>(&mut self, value: &F) -> Vec<u64>
    where
        F: Fn(&str) -> Option<f64> + ?Sized,
    {
        self.core.observe(&self.ga, value)
    }

    /// See [`GaMonitor::report`].
    #[must_use]
    pub fn report(&self) -> GaReport {
        self.core.report(&self.ga)
    }
}

impl fmt::Display for GuardedAssertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ga \"{}\": when {} then {} within {}",
            self.name, self.guard, self.assertion, self.within
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rows: &[(f64, f64)]) -> SignalTrace {
        let mut t = SignalTrace::new();
        for &(g, a) in rows {
            t.push_sample([("g", g), ("a", a)]);
        }
        t
    }

    #[test]
    fn parse_full_form() {
        let ga =
            GuardedAssertion::parse(r#"ga "resp": when g > 0.5 then a == 1 within 3"#).unwrap();
        assert_eq!(ga.name(), "resp");
        assert_eq!(ga.within(), 3);
        assert_eq!(ga.guard().signals(), vec!["g"]);
    }

    #[test]
    fn parse_without_within_defaults_to_zero() {
        let ga = GuardedAssertion::parse(r#"ga "x": when g > 0 then a > 0"#).unwrap();
        assert_eq!(ga.within(), 0);
    }

    #[test]
    fn parse_errors() {
        assert!(GuardedAssertion::parse("when g > 0 then a > 0").is_err());
        assert!(GuardedAssertion::parse(r#"ga "x" when g > 0 then a > 0"#).is_err());
        assert!(GuardedAssertion::parse(r#"ga "x": when g > 0"#).is_err());
        assert!(GuardedAssertion::parse(r#"ga "x": when g > 0 then a > 0 within lots"#).is_err());
        assert!(GuardedAssertion::parse(r#"ga "x": when > 0 then a > 0"#).is_err());
    }

    #[test]
    fn satisfied_within_window() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1 within 2"#).unwrap();
        // guard at 0, assertion at 2 (deadline).
        let t = trace(&[(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]);
        let r = ga.evaluate(&t);
        assert_eq!(r.activations, 1);
        assert!(r.violations.is_empty());
        assert_eq!(r.verdict, CheckStatus::Pass);
    }

    #[test]
    fn violation_when_window_elapses() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1 within 1"#).unwrap();
        let t = trace(&[(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]);
        let r = ga.evaluate(&t);
        assert_eq!(r.violations, vec![0]);
        assert_eq!(r.verdict, CheckStatus::Fail);
    }

    #[test]
    fn pending_when_trace_ends_inside_window() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1 within 10"#).unwrap();
        let t = trace(&[(1.0, 0.0), (0.0, 0.0)]);
        let r = ga.evaluate(&t);
        assert_eq!(r.pending, vec![0]);
        assert_eq!(r.verdict, CheckStatus::Incomplete);
    }

    #[test]
    fn same_tick_assertion_with_zero_window() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1"#).unwrap();
        let good = trace(&[(1.0, 1.0)]);
        assert_eq!(ga.evaluate(&good).verdict, CheckStatus::Pass);
        let bad = trace(&[(1.0, 0.0), (0.0, 1.0)]);
        assert_eq!(ga.evaluate(&bad).verdict, CheckStatus::Fail);
    }

    #[test]
    fn multiple_activations_counted_independently() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1 within 1"#).unwrap();
        let t = trace(&[
            (1.0, 0.0), // activation 0: a at 1 → ok
            (0.0, 1.0),
            (1.0, 0.0), // activation 2: no a by 3 → violation
            (0.0, 0.0),
            (1.0, 1.0), // activation 4: same tick → ok
        ]);
        let r = ga.evaluate(&t);
        assert_eq!(r.activations, 3);
        assert_eq!(r.violations, vec![2]);
    }

    #[test]
    fn display_round_trip() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g > 0.5 then a == 1 within 3"#).unwrap();
        let re = GuardedAssertion::parse(&ga.to_string()).unwrap();
        assert_eq!(ga, re);
    }

    #[test]
    fn streaming_monitor_reports_violation_at_window_close() {
        let ga = GuardedAssertion::parse(r#"ga "r": when g == 1 then a == 1 within 2"#).unwrap();
        let mut monitor = GaMonitor::new(&ga);
        let mut t = SignalTrace::new();
        // Tick 0: trigger.
        t.push_sample([("g", 1.0), ("a", 0.0)]);
        assert!(monitor.observe(&t).is_empty());
        assert_eq!(monitor.report().verdict, CheckStatus::Incomplete);
        // Ticks 1, 2: silence — window [0,2] closes at tick 2.
        t.push_sample([("g", 0.0), ("a", 0.0)]);
        assert!(monitor.observe(&t).is_empty());
        t.push_sample([("g", 0.0), ("a", 0.0)]);
        assert_eq!(
            monitor.observe(&t),
            vec![0],
            "violation confirmed exactly at deadline"
        );
        assert_eq!(monitor.report().verdict, CheckStatus::Fail);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The G/A parser is total on arbitrary input.
            #[test]
            fn parser_never_panics(s in "\\PC{0,80}") {
                let _ = GuardedAssertion::parse(&s);
            }

            /// Streaming evaluation is equivalent to batch evaluation.
            #[test]
            fn streaming_matches_batch(
                rows in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..80),
                within in 0u64..6,
            ) {
                let ga = GuardedAssertion::new(
                    "eq",
                    Expr::parse("g > 0.5").unwrap(),
                    Expr::parse("a > 0.5").unwrap(),
                    within,
                );
                // Batch over the full trace.
                let full = trace(&rows);
                let batch = ga.evaluate(&full);
                // Streaming, one tick at a time.
                let mut incremental = SignalTrace::new();
                let mut monitor = GaMonitor::new(&ga);
                for &(g, a) in &rows {
                    incremental.push_sample([("g", g), ("a", a)]);
                    monitor.observe(&incremental);
                }
                let streamed = monitor.report();
                prop_assert_eq!(streamed.verdict, batch.verdict);
                prop_assert_eq!(streamed.activations, batch.activations);
                prop_assert_eq!(&streamed.violations, &batch.violations);
                prop_assert_eq!(&streamed.pending, &batch.pending);
            }

            /// Violations and pendings are disjoint subsets of
            /// activations, and the verdict is consistent with them.
            #[test]
            fn report_invariants(
                rows in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60),
                within in 0u64..8,
            ) {
                let ga = GuardedAssertion::new(
                    "inv",
                    Expr::parse("g > 0.5").unwrap(),
                    Expr::parse("a > 0.5").unwrap(),
                    within,
                );
                let t = trace(&rows);
                let r = ga.evaluate(&t);
                prop_assert!(r.violations.len() + r.pending.len() <= r.activations as usize);
                for w in r.violations.windows(2) {
                    prop_assert!(w[0] < w[1], "violations sorted");
                }
                use vdo_core::CheckStatus::*;
                match r.verdict {
                    Fail => prop_assert!(!r.violations.is_empty()),
                    Incomplete => {
                        prop_assert!(r.violations.is_empty());
                        prop_assert!(!r.pending.is_empty());
                    }
                    Pass => {
                        prop_assert!(r.violations.is_empty());
                        prop_assert!(r.pending.is_empty());
                    }
                }
            }
        }
    }
}
