//! [`Telemetry`] — the one handle the closed loop's layers take for
//! metrics and causal tracing.

use crate::journal::Journal;

/// Where a layer records what it did: counters and spans in
/// `registry`, events in `journal` (and, through the journal, any
/// durable sink it was built with), with requirement roots minted as
/// `TraceContext::root(trace_seed, id)`.
///
/// Cheap to clone (both handles share state). [`Telemetry::off`], also
/// the `Default`, holds a disabled registry and a disabled journal, so
/// an untraced run pays one branch per call site.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Counters, gauges, histograms and spans.
    pub registry: vdo_obs::Registry,
    /// Causal event journal.
    pub journal: Journal,
    /// Namespace of the requirement roots this layer mints or joins.
    pub trace_seed: u64,
}

impl Telemetry {
    /// No metrics and no journal.
    #[must_use]
    pub fn off() -> Self {
        Telemetry::default()
    }
}
