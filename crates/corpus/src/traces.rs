//! Monitoring workloads with known ground truth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vdo_temporal::{Tick, Trace};

/// An invariant-violation workload: a boolean "healthy" trace that turns
/// (and stays) unhealthy at a known tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationTrace {
    /// The ground-truth trace (`true` = invariant holds at that tick).
    pub trace: Trace<bool>,
    /// First tick at which the invariant is violated.
    pub violation_tick: Tick,
}

impl ViolationTrace {
    /// Builds a trace of `len` ticks with the violation starting at a
    /// seed-chosen tick in `[min_at, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `min_at >= len`.
    #[must_use]
    pub fn random(len: Tick, min_at: Tick, seed: u64) -> ViolationTrace {
        assert!(min_at < len, "violation window empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let violation_tick = rng.gen_range(min_at..len);
        ViolationTrace::at(len, violation_tick)
    }

    /// Builds a trace of `len` ticks violating exactly from
    /// `violation_tick` on.
    ///
    /// # Panics
    ///
    /// Panics if `violation_tick >= len`.
    #[must_use]
    pub fn at(len: Tick, violation_tick: Tick) -> ViolationTrace {
        assert!(violation_tick < len, "violation must lie inside the trace");
        ViolationTrace {
            trace: (0..len).map(|t| t < violation_tick).collect(),
            violation_tick,
        }
    }

    /// Builds a trace with a transient glitch: unhealthy only during
    /// `[glitch_at, glitch_at + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the glitch does not fit inside the trace.
    #[must_use]
    pub fn glitch(len: Tick, glitch_at: Tick, width: Tick) -> ViolationTrace {
        assert!(glitch_at + width <= len, "glitch must fit inside the trace");
        ViolationTrace {
            trace: (0..len)
                .map(|t| !(t >= glitch_at && t < glitch_at + width))
                .collect(),
            violation_tick: glitch_at,
        }
    }
}

/// A request/response workload for the timed-response experiments:
/// states are `(trigger, response)` pairs with known response delays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseWorkload {
    /// The trace of `(trigger, response)` observations.
    pub trace: Trace<(bool, bool)>,
    /// `(trigger_tick, response_tick)` pairs; a response tick of
    /// `None` means the trigger is never answered.
    pub requests: Vec<(Tick, Option<Tick>)>,
}

impl ResponseWorkload {
    /// Generates `len` ticks with triggers arriving at rate
    /// `trigger_probability`; each trigger is answered after a random
    /// delay in `[0, max_delay]`, except with probability `drop_rate`
    /// it is never answered.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // `t` indexes two vectors plus arithmetic
    pub fn random(
        len: Tick,
        trigger_probability: f64,
        max_delay: Tick,
        drop_rate: f64,
        seed: u64,
    ) -> ResponseWorkload {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = len as usize;
        let mut triggers = vec![false; n];
        let mut responses = vec![false; n];
        let mut requests = Vec::new();
        for t in 0..n {
            if rng.gen_bool(trigger_probability) {
                triggers[t] = true;
                if rng.gen_bool(drop_rate) {
                    requests.push((t as Tick, None));
                } else {
                    let delay = rng.gen_range(0..=max_delay);
                    let at = t as Tick + delay;
                    if (at as usize) < n {
                        responses[at as usize] = true;
                        requests.push((t as Tick, Some(at)));
                    } else {
                        requests.push((t as Tick, None));
                    }
                }
            }
        }
        ResponseWorkload {
            trace: (0..n).map(|t| (triggers[t], responses[t])).collect(),
            requests,
        }
    }

    /// The worst (largest) response delay among answered requests.
    #[must_use]
    pub fn max_observed_delay(&self) -> Option<Tick> {
        self.requests
            .iter()
            .filter_map(|(t, r)| r.map(|r| r - t))
            .max()
    }

    /// Count of triggers never answered within the trace.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.requests.iter().filter(|(_, r)| r.is_none()).count()
    }
}

/// Generates a TEARS-style signal log: `load` wanders in `[0, 1]`,
/// `throttled` follows `load > 0.9` after `lag` ticks — except for
/// `faults` seed-chosen occasions where throttling silently fails.
/// Returns the samples as `(load, throttled)` rows plus the ticks of the
/// planted faults.
#[must_use]
pub fn throttle_log(
    len: Tick,
    lag: Tick,
    faults: usize,
    seed: u64,
) -> (Vec<(f64, f64)>, Vec<Tick>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = len as usize;
    let mut load = Vec::with_capacity(n);
    let mut level: f64 = 0.5;
    for _ in 0..n {
        level = (level + rng.gen_range(-0.15..0.15)).clamp(0.0, 1.0);
        load.push(level);
    }
    // Ticks where load first exceeds 0.9 (rising edges).
    let hot: Vec<usize> = (0..n)
        .filter(|&t| load[t] > 0.9 && (t == 0 || load[t - 1] <= 0.9))
        .collect();
    let mut fault_ticks: Vec<Tick> = Vec::new();
    let mut faulty = vec![false; hot.len()];
    if !hot.is_empty() {
        for _ in 0..faults.min(hot.len()) {
            let k = rng.gen_range(0..hot.len());
            if !faulty[k] {
                faulty[k] = true;
                fault_ticks.push(hot[k] as Tick);
            }
        }
    }
    fault_ticks.sort_unstable();
    let mut throttled = vec![0.0; n];
    for (k, &h) in hot.iter().enumerate() {
        if faulty[k] {
            continue;
        }
        let start = h + lag as usize;
        // Throttle stays up while load remains hot.
        let mut t = start;
        while t < n && load[t.saturating_sub(lag as usize).min(n - 1)] > 0.9 {
            throttled[t] = 1.0;
            t += 1;
        }
        if start < n {
            throttled[start] = 1.0;
        }
    }
    (load.into_iter().zip(throttled).collect(), fault_ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_core::CheckStatus;
    use vdo_specpat::{ObserverAutomaton, PatternKind, Scope, SpecPattern};
    use vdo_temporal::{MonitorOutcome, MonitoringLoop};

    #[test]
    fn violation_trace_shape() {
        let w = ViolationTrace::at(10, 4);
        assert_eq!(w.trace.len(), 10);
        assert_eq!(w.trace.state_at(3), Some(&true));
        assert_eq!(w.trace.state_at(4), Some(&false));
        assert_eq!(w.trace.state_at(9), Some(&false), "violation persists");
    }

    #[test]
    fn random_violation_is_deterministic_and_in_range() {
        let a = ViolationTrace::random(100, 10, 3);
        let b = ViolationTrace::random(100, 10, 3);
        assert_eq!(a, b);
        assert!(a.violation_tick >= 10 && a.violation_tick < 100);
    }

    #[test]
    fn glitch_recovers() {
        let w = ViolationTrace::glitch(10, 3, 2);
        assert_eq!(w.trace.state_at(2), Some(&true));
        assert_eq!(w.trace.state_at(3), Some(&false));
        assert_eq!(w.trace.state_at(4), Some(&false));
        assert_eq!(w.trace.state_at(5), Some(&true));
    }

    #[test]
    fn monitor_detects_planted_violation_with_exact_latency() {
        let w = ViolationTrace::at(50, 23);
        let pattern = SpecPattern::new(Scope::Globally, PatternKind::universality("up"));
        let observer = ObserverAutomaton::for_pattern(&pattern).expect("observer");
        let up = |b: &bool| CheckStatus::from(*b);
        let report = MonitoringLoop::new(5)
            .expect("nonzero period")
            .run(observer.monitor(&[("up", &up)]).expect("bound"), &w.trace);
        // Polls at 0,5,10,15,20,25 → detection at 25, latency 2.
        assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(25));
        assert_eq!(report.detection_latency(w.violation_tick), Some(2));
    }

    #[test]
    fn response_workload_consistency() {
        let w = ResponseWorkload::random(500, 0.1, 10, 0.1, 9);
        assert_eq!(w.trace.len(), 500);
        for (t, r) in &w.requests {
            assert!(w.trace.state_at(*t).unwrap().0, "trigger recorded");
            if let Some(r) = r {
                assert!(r >= t);
                assert!(w.trace.state_at(*r).unwrap().1, "response recorded");
            }
        }
        if let Some(d) = w.max_observed_delay() {
            assert!(d <= 10);
        }
    }

    #[test]
    fn throttle_log_plants_faults_on_hot_edges() {
        let (rows, faults) = throttle_log(2000, 2, 3, 11);
        assert_eq!(rows.len(), 2000);
        for &f in &faults {
            let t = f as usize;
            assert!(rows[t].0 > 0.9, "fault tick must be a hot edge");
        }
    }
}
