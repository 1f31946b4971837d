//! Per-tick sampled signal traces.

use std::collections::BTreeMap;

use vdo_core::{CheckStatus, Guard};

use crate::expr::Cmp;

/// A set of named numeric signals sampled once per tick.
///
/// Signals are dense: every [`push_sample`](SignalTrace::push_sample)
/// provides values for the signals it names; signals absent from a
/// sample hold their previous value (sample-and-hold), and signals that
/// have never been sampled read as `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignalTrace {
    // name -> (first_tick, values from first_tick on)
    signals: BTreeMap<String, (u64, Vec<f64>)>,
    ticks: u64,
}

impl SignalTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        SignalTrace::default()
    }

    /// Appends one tick of samples; signals not mentioned hold their
    /// last value.
    pub fn push_sample<I, N>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (N, f64)>,
        N: Into<String>,
    {
        let t = self.ticks;
        for (name, value) in samples {
            let name = name.into();
            let entry = self.signals.entry(name).or_insert_with(|| (t, Vec::new()));
            // Hold the previous value for any gap ticks.
            let expected_len = (t - entry.0) as usize;
            while entry.1.len() < expected_len {
                let last = *entry.1.last().expect("gap implies prior sample");
                entry.1.push(last);
            }
            entry.1.push(value);
        }
        self.ticks += 1;
        // Extend held signals lazily in `value`; nothing to do here.
    }

    /// Number of ticks recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.ticks
    }

    /// `true` iff no tick has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ticks == 0
    }

    /// Value of `name` at `tick` (sample-and-hold); `None` before the
    /// signal's first sample, past the trace end, or for unknown signals.
    #[must_use]
    pub fn value(&self, name: &str, tick: u64) -> Option<f64> {
        if tick >= self.ticks {
            return None;
        }
        let (first, values) = self.signals.get(name)?;
        if tick < *first {
            return None;
        }
        let idx = (tick - first) as usize;
        match values.get(idx) {
            Some(v) => Some(*v),
            // Held beyond the last explicit sample.
            None => values.last().copied(),
        }
    }

    /// Evaluates a condition at `tick`: each comparison reads its
    /// signal's value there, and is `Incomplete` when it has none.
    #[must_use]
    pub fn eval(&self, condition: &Guard<Cmp>, tick: u64) -> CheckStatus {
        condition.eval(&|c: &Cmp| c.eval(self.value(&c.signal, tick)))
    }

    /// Names of all signals seen, in sorted order.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.signals.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sampling() {
        let mut t = SignalTrace::new();
        t.push_sample([("a", 1.0), ("b", 2.0)]);
        t.push_sample([("a", 3.0)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.value("a", 0), Some(1.0));
        assert_eq!(t.value("a", 1), Some(3.0));
        assert_eq!(t.value("b", 1), Some(2.0), "sample-and-hold");
    }

    #[test]
    fn unknown_and_out_of_range() {
        let mut t = SignalTrace::new();
        t.push_sample([("a", 1.0)]);
        assert_eq!(t.value("zzz", 0), None);
        assert_eq!(t.value("a", 5), None);
    }

    #[test]
    fn late_starting_signal() {
        let mut t = SignalTrace::new();
        t.push_sample([("a", 1.0)]);
        t.push_sample([("a", 1.0), ("late", 9.0)]);
        assert_eq!(t.value("late", 0), None, "before first sample");
        assert_eq!(t.value("late", 1), Some(9.0));
    }

    #[test]
    fn gap_filling_holds_value() {
        let mut t = SignalTrace::new();
        t.push_sample([("a", 1.0), ("b", 5.0)]);
        t.push_sample([("a", 2.0)]); // b held
        t.push_sample([("a", 3.0), ("b", 6.0)]); // b resampled after gap
        assert_eq!(t.value("b", 1), Some(5.0));
        assert_eq!(t.value("b", 2), Some(6.0));
    }

    #[test]
    fn signal_names_sorted() {
        let mut t = SignalTrace::new();
        t.push_sample([("z", 0.0), ("a", 0.0)]);
        assert_eq!(t.signal_names().collect::<Vec<_>>(), vec!["a", "z"]);
    }
}
