//! Outside-in tracing: spans the ledger records around its own calls
//! into each layer's public entry points, kept in memory and written
//! out when the run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vdo_trace::{Event, JournalSink};

use crate::stats;

/// One timed interval. `parent` indexes the enclosing span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.gate.compliance`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    /// Nanoseconds since the recorder's origin.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-name aggregate of a span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Summed wall duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_s: f64,
    /// 99th percentile of single-span durations, microseconds.
    pub p99_us: f64,
}

/// An in-memory span tree with a single clock origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The shared clock: nanoseconds since the origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        elapsed_nanos(self.origin)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// An empty recorder on the same clock, for another thread; its
    /// spans come back through [`Spans::graft`].
    #[must_use]
    pub fn fork(&self) -> Spans {
        Spans {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends the spans of a recorder from [`Spans::fork`]; its root
    /// spans become children of the innermost open span.
    pub fn graft(&mut self, forked: Spans) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(forked.spans.into_iter().map(|s| Span {
            parent: s.parent.map_or(parent, |p| Some(base + p)),
            ..s
        }));
    }

    /// Adds finished intervals measured elsewhere (on the same clock)
    /// as children of span `parent`.
    pub fn adopt(&mut self, name: &'static str, parent: usize, intervals: &[(u64, u64)]) {
        self.spans
            .extend(intervals.iter().map(|&(start, end)| Span {
                name,
                start,
                end,
                parent: Some(parent),
            }));
    }

    /// Index of the most recently opened span named `name`.
    #[must_use]
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Duration in seconds of the most recent span named `name`; 0 when
    /// there is none.
    #[must_use]
    pub fn secs(&self, name: &str) -> f64 {
        self.last(name)
            .map_or(0.0, |i| self.spans[i].nanos() as f64 / 1e9)
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregates the tree by span name. Self time subtracts the
    /// durations of direct children, which do not overlap on one
    /// thread: the ledger nests its own spans sequentially, and adopted
    /// sink intervals are serialized by the journal's sink lock. Spans
    /// grafted from several threads under one parent overlap, so that
    /// parent's self time reads 0.
    #[must_use]
    pub fn layers(&self) -> HashMap<&'static str, Layer> {
        let mut child_nanos = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_nanos[p] += s.nanos();
            }
        }
        let mut by_name: HashMap<&'static str, (Vec<f64>, u64)> = HashMap::new();
        for (s, children) in self.spans.iter().zip(child_nanos) {
            let (durations, self_nanos) = by_name.entry(s.name).or_default();
            durations.push(s.nanos() as f64);
            *self_nanos += s.nanos().saturating_sub(children);
        }
        by_name
            .into_iter()
            .map(|(name, (durations, self_nanos))| {
                let sorted = stats::sorted(&durations);
                let layer = Layer {
                    calls: sorted.len() as u64,
                    total_s: sorted.iter().sum::<f64>() / 1e9,
                    self_s: self_nanos as f64 / 1e9,
                    p99_us: stats::percentile_sorted(&sorted, 0.99) / 1e3,
                };
                (name, layer)
            })
            .collect()
    }

    /// Writes the tree as tab-separated `id parent name start_ns end_ns
    /// workload` lines (parent `-` for roots).
    ///
    /// # Errors
    /// When the file cannot be created or written.
    pub fn write_tsv(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tworkload")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{workload}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

fn elapsed_nanos(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Intervals a [`TimingSink`] publishes, readable after the journal
/// that owns the sink has synced.
pub type SinkIntervals = Arc<Mutex<Vec<(u64, u64)>>>;

/// A [`JournalSink`] decorator timing every `record` call
/// of the sink it wraps, on the clock of a [`Spans`] recorder. It only
/// observes: the wrapped sink receives exactly the calls it would have
/// received directly.
pub struct TimingSink<S> {
    inner: S,
    origin: Instant,
    local: Vec<(u64, u64)>,
    published: SinkIntervals,
}

impl<S: JournalSink> TimingSink<S> {
    /// Wraps `inner`, timing against `spans`' clock. Intervals become
    /// visible through the returned handle at every flush.
    pub fn new(inner: S, spans: &Spans) -> (Self, SinkIntervals) {
        let published = SinkIntervals::default();
        let sink = TimingSink {
            inner,
            origin: spans.origin,
            local: Vec::new(),
            published: Arc::clone(&published),
        };
        (sink, published)
    }
}

impl<S> TimingSink<S> {
    fn publish(&mut self) {
        // Only this sink appends, so a poisoned lock still holds
        // complete intervals; dropping a batch would just lose timing.
        if let Ok(mut out) = self.published.lock() {
            out.append(&mut self.local);
        }
    }
}

impl<S: JournalSink> JournalSink for TimingSink<S> {
    fn record(&mut self, seq: u64, event: &Event) {
        let start = elapsed_nanos(self.origin);
        self.inner.record(seq, event);
        self.local.push((start, elapsed_nanos(self.origin)));
    }

    fn flush(&mut self) {
        self.inner.flush();
        self.publish();
    }
}

impl<S> Drop for TimingSink<S> {
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        spans.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let layers = spans.layers();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_s >= 0.005);
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
        assert!(outer.self_s >= 0.002 && outer.self_s < outer.total_s);
    }

    #[test]
    fn grafted_roots_nest_under_the_open_span() {
        let mut spans = Spans::new();
        spans.scope("replay", |spans| {
            let mut forked = spans.fork();
            forked.scope("handle", |f| f.scope("gate", |_| ()));
            spans.graft(forked);
        });
        let by_name = |name| spans.spans().iter().position(|s| s.name == name);
        let (replay, handle, gate) = (by_name("replay"), by_name("handle"), by_name("gate"));
        assert_eq!(spans.spans()[handle.expect("handle")].parent, replay);
        assert_eq!(spans.spans()[gate.expect("gate")].parent, handle);
    }
}
