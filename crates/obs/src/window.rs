//! Incremental windowed aggregation under the simulated clock.
//!
//! Diffing whole-registry snapshots to isolate a window re-walks every
//! instrument — fine for a post-hoc report, wrong for a resident
//! evaluator that runs every tick. The aggregators here are fed *per
//! event* instead: each keeps
//! a ring of per-tick cells sized to its horizon, so feeding an
//! observation is O(1), a trailing-window query is O(window), and the
//! result depends only on the observation stream — deterministic at
//! any worker count when fed from the engine's main thread.
//!
//! Three shapes cover the burn-rate rules downstream:
//!
//! * [`WindowCounter`] — windowed sums and rates over an event count;
//! * [`WindowHistogram`] — per-tick bucket counts, answering the
//!   fraction of a window's observations above a threshold in place,
//!   with the interpolation the cumulative histograms' quantiles use;
//! * [`Ewma`] — exponentially weighted smoothing for trend readouts.
//!
//! Sliding windows are the primary API (`sum`, `rate`,
//! `fraction_above` over the trailing `window` ticks); tumbling
//! windows fall out of the same rings via [`WindowCounter::tumbling`].

/// Sentinel tick marking a ring cell as never written.
const EMPTY: u64 = u64::MAX;

/// A per-tick event counter with O(1) feed and O(window) trailing
/// sums.
///
/// The ring holds one cell per tick over the configured `horizon`;
/// cells are lazily reused as the clock advances, so out-of-order
/// feeds within the horizon are fine and ticks older than the horizon
/// are silently forgotten.
#[derive(Debug, Clone)]
pub struct WindowCounter {
    /// `(tick, value)` cells indexed by `tick % capacity`.
    slots: Vec<(u64, u64)>,
}

impl WindowCounter {
    /// A counter able to answer windows up to `horizon` ticks long.
    ///
    /// # Panics
    /// When `horizon` is zero.
    #[must_use]
    pub fn new(horizon: usize) -> Self {
        assert!(horizon > 0, "window horizon must be at least one tick");
        WindowCounter {
            slots: vec![(EMPTY, 0); horizon],
        }
    }

    /// The longest window this counter can answer.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.slots.len()
    }

    /// Adds `n` events at `tick`.
    pub fn incr(&mut self, tick: u64, n: u64) {
        let cap = self.slots.len() as u64;
        let slot = &mut self.slots[(tick % cap) as usize];
        if slot.0 != tick {
            *slot = (tick, 0);
        }
        slot.1 += n;
    }

    /// Events in the trailing window `(now - window, now]` — the last
    /// `window` ticks, inclusive of `now`. `window` is clamped to the
    /// horizon.
    #[must_use]
    pub fn sum(&self, now: u64, window: u64) -> u64 {
        let window = window.min(self.slots.len() as u64).max(1);
        self.slots
            .iter()
            .filter(|(t, _)| *t != EMPTY && *t <= now && now - *t < window)
            .map(|(_, v)| v)
            .sum()
    }

    /// Events per tick over the trailing window.
    #[must_use]
    pub fn rate(&self, now: u64, window: u64) -> f64 {
        let window = window.min(self.slots.len() as u64).max(1);
        self.sum(now, window) as f64 / window as f64
    }

    /// The tumbling window containing `now`: non-overlapping buckets
    /// `[k·window, (k+1)·window)`. Returns `(bucket_start, sum)` for
    /// the (possibly still filling) current bucket.
    #[must_use]
    pub fn tumbling(&self, now: u64, window: u64) -> (u64, u64) {
        let window = window.min(self.slots.len() as u64).max(1);
        let start = (now / window) * window;
        let sum = self
            .slots
            .iter()
            .filter(|(t, _)| *t != EMPTY && *t >= start && *t <= now)
            .map(|(_, v)| v)
            .sum();
        (start, sum)
    }
}

/// Per-tick cell of a [`WindowHistogram`].
#[derive(Debug, Clone)]
struct TickCell {
    tick: u64,
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

/// A fixed-bucket histogram whose observations are bucketed *per
/// tick*, so any trailing window's fraction above a threshold is read
/// off the ring directly.
#[derive(Debug, Clone)]
pub struct WindowHistogram {
    bounds: &'static [u64],
    slots: Vec<TickCell>,
}

impl WindowHistogram {
    /// A histogram over `bounds` able to answer windows up to
    /// `horizon` ticks long.
    ///
    /// # Panics
    /// When `horizon` is zero.
    #[must_use]
    pub fn new(bounds: &'static [u64], horizon: usize) -> Self {
        assert!(horizon > 0, "window horizon must be at least one tick");
        WindowHistogram {
            bounds,
            slots: vec![
                TickCell {
                    tick: EMPTY,
                    counts: vec![0; bounds.len() + 1],
                    count: 0,
                    max: 0,
                };
                horizon
            ],
        }
    }

    /// The longest window this histogram can answer.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.slots.len()
    }

    /// Records one observation at `tick`.
    pub fn record(&mut self, tick: u64, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        let cap = self.slots.len() as u64;
        let cell = &mut self.slots[(tick % cap) as usize];
        if cell.tick != tick {
            cell.tick = tick;
            cell.counts.iter_mut().for_each(|c| *c = 0);
            cell.count = 0;
            cell.max = 0;
        }
        cell.counts[idx] += 1;
        cell.count += 1;
        cell.max = cell.max.max(value);
    }

    /// Fraction of the observations in the trailing window
    /// `(now - window, now]` above `threshold`, interpolating linearly
    /// inside the boundary bucket (the CDF complement of
    /// [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile));
    /// `0.0` for an empty window. Everything in the overflow bucket
    /// counts as above unless `threshold` clears the window maximum (the
    /// ring keeps per-tick maxima). `window` is clamped to the horizon.
    /// Reads the ring in place: no window state is materialised.
    #[must_use]
    pub fn fraction_above(&self, now: u64, window: u64, threshold: u64) -> f64 {
        let window = window.min(self.slots.len() as u64).max(1);
        let cells = || {
            self.slots
                .iter()
                .filter(move |c| c.tick != EMPTY && c.tick <= now && now - c.tick < window)
        };
        let count: u64 = cells().map(|c| c.count).sum();
        if count == 0 {
            return 0.0;
        }
        let mut good = 0.0_f64;
        let mut lower = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            let n = cells().map(|c| c.counts[i]).sum::<u64>() as f64;
            if threshold >= bound {
                good += n;
            } else {
                if threshold > lower {
                    let width = (bound - lower) as f64;
                    good += n * (threshold - lower) as f64 / width;
                }
                return (1.0 - good / count as f64).clamp(0.0, 1.0);
            }
            lower = bound;
        }
        if threshold >= cells().map(|c| c.max).max().unwrap_or(0) {
            good = count as f64;
        }
        (1.0 - good / count as f64).clamp(0.0, 1.0)
    }
}

/// Exponentially weighted moving average: `v ← α·x + (1-α)·v`, seeded
/// by the first observation.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An EWMA with smoothing factor `alpha` (clamped to `(0, 1]`).
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            value: None,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
            None => x,
        });
    }

    /// The smoothed value (`None` before any observation).
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TICK_BOUNDS;

    #[test]
    fn window_counter_sums_the_trailing_window_only() {
        let mut c = WindowCounter::new(10);
        for t in 0..20 {
            c.incr(t, t + 1); // tick t contributes t+1
        }
        // Window (14, 19]: ticks 15..=19 contribute 16+17+18+19+20.
        assert_eq!(c.sum(19, 5), 90);
        assert_eq!(c.sum(19, 1), 20, "window of one tick");
        assert!((c.rate(19, 5) - 18.0).abs() < 1e-12);
        // A window longer than the horizon clamps to the horizon.
        assert_eq!(c.sum(19, 100), c.sum(19, 10));
    }

    #[test]
    fn window_counter_forgets_ticks_past_the_horizon() {
        let mut c = WindowCounter::new(4);
        c.incr(0, 100);
        c.incr(10, 1);
        // Tick 0's cell was reused (or is out of range) — only tick 10
        // remains visible.
        assert_eq!(c.sum(10, 4), 1);
        // Sparse feeds: stale cells whose tick falls outside the
        // window never leak in.
        assert_eq!(c.sum(20, 4), 0);
    }

    #[test]
    fn window_counter_accepts_out_of_order_feeds_within_horizon() {
        let mut c = WindowCounter::new(8);
        c.incr(5, 1);
        c.incr(3, 2);
        c.incr(5, 1);
        assert_eq!(c.sum(5, 4), 4);
        assert_eq!(c.sum(5, 1), 2);
    }

    #[test]
    fn tumbling_buckets_do_not_overlap() {
        let mut c = WindowCounter::new(16);
        for t in 0..12 {
            c.incr(t, 1);
        }
        assert_eq!(c.tumbling(7, 4), (4, 4), "bucket [4,8) is full");
        assert_eq!(c.tumbling(9, 4), (8, 2), "bucket [8,12) is filling");
    }

    #[test]
    fn window_histogram_reads_true_window_state() {
        let mut h = WindowHistogram::new(&TICK_BOUNDS, 10);
        h.record(0, 1_000); // an old spike
        for t in 5..10 {
            h.record(t, 2);
        }
        // (5, 9]: four observations of 2, none above 2.
        assert_eq!(h.fraction_above(9, 4, 2), 0.0);
        // Inside the (1, 2] bucket nothing interpolates below 1.
        assert_eq!(h.fraction_above(9, 4, 1), 1.0);
        // The window max excludes the old spike, so a threshold past
        // the last bound clears the overflow bucket...
        assert_eq!(h.fraction_above(9, 5, 300), 0.0);
        // ...until the full horizon sees it overflow.
        assert!((h.fraction_above(9, 10, 300) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.fraction_above(9, 100, 300), h.fraction_above(9, 10, 300));
        assert_eq!(h.fraction_above(30, 5, 0), 0.0, "empty window");
    }

    #[test]
    fn fraction_above_interpolates_inside_the_boundary_bucket() {
        let mut h = WindowHistogram::new(&[1, 2, 4, 8], 1);
        for (value, n) in [(1, 50), (2, 30), (4, 10), (8, 8), (20, 2)] {
            (0..n).for_each(|_| h.record(0, value));
        }
        // 10% of observations are above 4.
        assert!((h.fraction_above(0, 1, 4) - 0.10).abs() < 1e-9);
        // Threshold at or above the max: nothing is above, even in the
        // overflow bucket.
        assert_eq!(h.fraction_above(0, 1, 20), 0.0);
        // Threshold past the last bound but under the max: the overflow
        // bucket counts.
        assert!((h.fraction_above(0, 1, 10) - 0.02).abs() < 1e-9);
        // Threshold 0: only bucket-0 interpolation, nearly everything.
        assert!(h.fraction_above(0, 1, 0) > 0.9);
        // Half of the (2, 4] bucket is above 3.
        assert!((h.fraction_above(0, 1, 3) - 0.15).abs() < 1e-9);
    }

    #[test]
    fn window_histogram_reuses_cells_deterministically() {
        let run = || {
            let mut h = WindowHistogram::new(&TICK_BOUNDS, 4);
            for t in 0..50 {
                h.record(t, t % 7);
            }
            (0..8)
                .map(|k| h.fraction_above(49, 4, k))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // (45, 49]: values 4, 5, 6, 0; two of four lie above 4.
        assert_eq!(run()[4], 0.5);
    }

    #[test]
    fn ewma_converges_toward_a_step() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(0.0);
        assert_eq!(e.value(), Some(0.0));
        for _ in 0..20 {
            e.observe(10.0);
        }
        let v = e.value().unwrap();
        assert!(v > 9.99, "converged: {v}");
    }
}
