//! Typed security events and their bus envelope.
//!
//! Every observable change in the operated fleet becomes one
//! [`SecEvent`]. Events are routed to a bus shard by their host (a fixed
//! hash, so one host's events always share a shard) and stamped with a
//! per-shard sequence number, which is the ordering authority for
//! everything downstream: monitors consume a shard's events in sequence
//! order and the incident log is sorted by `(shard, seq)`.

use vdo_host::DriftKind;
use vdo_trace::TraceContext;

/// Fleet-wide host identifier (index into the engine's host slice).
pub type HostId = usize;

/// One security-relevant occurrence on a host.
#[derive(Debug, Clone, PartialEq)]
pub enum SecEvent {
    /// A drift event mutated the host's configuration state.
    DriftApplied {
        /// Affected host.
        host: HostId,
        /// Tick at which the drift landed.
        tick: u64,
        /// Drift category.
        kind: DriftKind,
        /// Human-readable drift detail.
        detail: String,
    },
    /// A configuration change that is not attributed to random drift
    /// (deploys, audits, manual edits). Triggers the same re-checks.
    ConfigChanged {
        /// Affected host.
        host: HostId,
        /// Tick of the change.
        tick: u64,
        /// What changed.
        detail: String,
    },
    /// One tick's worth of telemetry signals from a host, feeding the
    /// TEARS guarded-assertion monitors.
    SignalTick {
        /// Reporting host.
        host: HostId,
        /// Sample tick.
        tick: u64,
        /// Named signal values sampled this tick, carried inline: the
        /// telemetry firehose is the bulk of the bus's traffic, so its
        /// events own no heap memory.
        signals: [(&'static str, f64); 2],
    },
    /// An SLO burn-rate alert fired by the tracing layer. Routed to a
    /// representative host (alerts are fleet-level) and handled like a
    /// configuration change: the alert triggers a catalogue re-audit,
    /// closing the observability loop back into reaction.
    SloAlert {
        /// Host whose shard carries the alert (audit target).
        host: HostId,
        /// Tick the alert fired.
        tick: u64,
        /// Name of the breached burn-rate rule.
        rule: String,
    },
}

impl SecEvent {
    /// The host this event concerns (and therefore its shard key).
    #[must_use]
    pub fn host(&self) -> HostId {
        match self {
            SecEvent::DriftApplied { host, .. }
            | SecEvent::ConfigChanged { host, .. }
            | SecEvent::SignalTick { host, .. }
            | SecEvent::SloAlert { host, .. } => *host,
        }
    }

    /// The tick the event happened at.
    #[must_use]
    pub fn tick(&self) -> u64 {
        match self {
            SecEvent::DriftApplied { tick, .. }
            | SecEvent::ConfigChanged { tick, .. }
            | SecEvent::SignalTick { tick, .. }
            | SecEvent::SloAlert { tick, .. } => *tick,
        }
    }
}

/// A [`SecEvent`] as carried on the bus: routed, sequenced, and
/// (optionally) causally attributed.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Shard the event was routed to.
    pub shard: usize,
    /// Position in that shard's total order (0-based, gap-free).
    pub seq: u64,
    /// Causal context of the event's publisher, when tracing is on
    /// (see [`ShardedBus::publish_traced`](crate::ShardedBus::publish_traced)).
    pub trace: Option<TraceContext>,
    /// The event itself.
    pub event: SecEvent,
}

/// Fixed host-to-shard hash (SplitMix64 finalizer). Stable across runs
/// and worker counts, so a host's events always serialize through the
/// same shard.
#[must_use]
pub fn shard_of(host: HostId, shards: usize) -> usize {
    (vdo_obs::hash::mix64(host as u64) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 16] {
            for host in 0..200 {
                let s = shard_of(host, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(host, shards), "must be a pure function");
            }
        }
    }

    #[test]
    fn shard_assignment_spreads_hosts() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for host in 0..800 {
            counts[shard_of(host, shards)] += 1;
        }
        // No shard should be empty or hold more than half the fleet.
        assert!(counts.iter().all(|&c| c > 0 && c < 400), "{counts:?}");
    }

    #[test]
    fn event_accessors() {
        let e = SecEvent::SloAlert {
            host: 4,
            tick: 9,
            rule: "V-1".into(),
        };
        assert_eq!(e.host(), 4);
        assert_eq!(e.tick(), 9);
    }
}
