//! Analysis sessions — the NAPKIN "session directory" counterpart.
//!
//! A [`Session`] bundles a set of guarded assertions with a signal trace
//! and produces the overview the NAPKIN UI renders as
//! `ANALYSIS_overview.html` (here: a typed summary plus a text table).

use std::fmt;

use vdo_core::CheckStatus;

use crate::assertion::{GaReport, GuardedAssertion, ParseGaError};
use crate::signal::SignalTrace;

/// A set of guarded assertions evaluated together over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Session {
    assertions: Vec<GuardedAssertion>,
}

impl Session {
    /// Creates an empty session.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// Adds one assertion.
    pub fn add(&mut self, ga: GuardedAssertion) {
        self.assertions.push(ga);
    }

    /// Parses a requirements file: one G/A per line; blank lines and
    /// `#` comments are skipped (the shape of `GA/TEARS requirements.txt`
    /// in a NAPKIN session directory).
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseGaError`] with its line number.
    pub fn parse(text: &str) -> Result<Session, (usize, ParseGaError)> {
        let mut session = Session::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let ga = GuardedAssertion::parse(line).map_err(|e| (i + 1, e))?;
            session.add(ga);
        }
        Ok(session)
    }

    /// The assertions in insertion order.
    #[must_use]
    pub fn assertions(&self) -> &[GuardedAssertion] {
        &self.assertions
    }

    /// Number of assertions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// `true` iff the session has no assertions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Evaluates every assertion over the trace.
    #[must_use]
    pub fn evaluate(&self, trace: &SignalTrace) -> SessionOverview {
        SessionOverview {
            reports: self
                .assertions
                .iter()
                .map(|ga| ga.evaluate(trace))
                .collect(),
            trace_ticks: trace.len(),
        }
    }
}

/// Aggregated session results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOverview {
    reports: Vec<GaReport>,
    trace_ticks: u64,
}

impl SessionOverview {
    /// Per-assertion reports in session order.
    #[must_use]
    pub fn reports(&self) -> &[GaReport] {
        &self.reports
    }

    /// Number of trace ticks analysed.
    #[must_use]
    pub fn trace_ticks(&self) -> u64 {
        self.trace_ticks
    }

    /// Count of assertions with the given verdict.
    #[must_use]
    pub fn count(&self, verdict: CheckStatus) -> usize {
        self.reports.iter().filter(|r| r.verdict == verdict).count()
    }

    /// Overall verdict: `Fail` dominates, then `Incomplete`.
    #[must_use]
    pub fn verdict(&self) -> CheckStatus {
        CheckStatus::all(self.reports.iter().map(|r| r.verdict))
    }

    /// Total violations across all assertions.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.reports.iter().map(|r| r.violations.len()).sum()
    }

    /// Renders the analysis-overview table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>11} {:>10} {:>8}  {}\n",
            "GUARDED ASSERTION", "ACTIVATIONS", "VIOLATIONS", "PENDING", "VERDICT"
        ));
        for r in &self.reports {
            out.push_str(&format!(
                "{:<24} {:>11} {:>10} {:>8}  {}\n",
                r.name,
                r.activations,
                r.violations.len(),
                r.pending.len(),
                r.verdict
            ));
        }
        out.push_str(&format!(
            "-- {} assertions over {} ticks: {} pass, {} fail, {} incomplete\n",
            self.reports.len(),
            self.trace_ticks,
            self.count(CheckStatus::Pass),
            self.count(CheckStatus::Fail),
            self.count(CheckStatus::Incomplete),
        ));
        out
    }
}

impl fmt::Display for SessionOverview {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQS: &str = r#"
# braking requirements
ga "pressure follows pedal": when pedal >= 0.5 then pressure > 10 within 2
ga "no pressure when idle": when pedal < 0.1 then pressure < 1 within 0
"#;

    fn trace() -> SignalTrace {
        let mut t = SignalTrace::new();
        t.push_sample([("pedal", 0.0), ("pressure", 0.0)]);
        t.push_sample([("pedal", 0.8), ("pressure", 2.0)]);
        t.push_sample([("pedal", 0.8), ("pressure", 15.0)]);
        t.push_sample([("pedal", 0.0), ("pressure", 0.5)]);
        t
    }

    #[test]
    fn parse_session_file() {
        let s = Session::parse(REQS).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.assertions()[0].name(), "pressure follows pedal");
    }

    #[test]
    fn parse_reports_line_numbers() {
        let bad = "ga \"ok\": when a > 0 then b > 0\nga broken\n";
        let (line, _) = Session::parse(bad).unwrap_err();
        assert_eq!(line, 2);
    }

    #[test]
    fn evaluate_overview() {
        let s = Session::parse(REQS).unwrap();
        let overview = s.evaluate(&trace());
        assert_eq!(overview.reports().len(), 2);
        assert_eq!(overview.verdict(), CheckStatus::Pass);
        assert_eq!(overview.total_violations(), 0);
        assert_eq!(overview.trace_ticks(), 4);
    }

    #[test]
    fn failing_session() {
        let s = Session::parse(r#"ga "impossible": when pedal >= 0 then pressure > 99 within 0"#)
            .unwrap();
        let overview = s.evaluate(&trace());
        assert_eq!(overview.verdict(), CheckStatus::Fail);
        assert!(overview.total_violations() > 0);
        let table = overview.to_table();
        assert!(table.contains("impossible"));
        assert!(table.contains("FAIL"));
    }

    #[test]
    fn empty_session_passes_vacuously() {
        let s = Session::new();
        let overview = s.evaluate(&trace());
        assert_eq!(overview.verdict(), CheckStatus::Pass);
        assert!(s.is_empty());
    }
}
