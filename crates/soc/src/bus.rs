//! The sharded security-event bus.
//!
//! `shards` independent bounded queues, each one mutex over a sequence
//! counter and a FIFO of envelopes. Routing is by host ([`shard_of`]),
//! so all events of one host flow through one shard in a gap-free total
//! order — the serialization unit the worker pool preserves.
//!
//! Publishing never blocks: a full shard queue reports
//! [`PublishError::Backpressure`] and hands the event back, letting the
//! publisher apply its own deferral policy.
//!
//! The SOC engine keeps this discipline — fixed routing, per-shard
//! seqs, bounded queues, deferral to the next tick — inside the shards
//! its workers own, so it needs no shared queue; the bus serves
//! publishers outside the engine.

use std::collections::VecDeque;

use parking_lot::Mutex;
use vdo_trace::TraceContext;

use crate::event::{shard_of, Envelope, SecEvent};

/// Why a publish did not land.
#[derive(Debug, PartialEq)]
pub enum PublishError {
    /// The target shard's queue is full; the event is handed back so the
    /// caller can defer or drop it.
    Backpressure(SecEvent),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Backpressure(e) => {
                write!(f, "shard queue full, event deferred (host {})", e.host())
            }
        }
    }
}

/// One shard's queue. The counter and the FIFO share a lock, so
/// concurrent publishers cannot interleave a later seq before an earlier
/// one.
#[derive(Default)]
struct Queue {
    /// Next sequence number.
    seq: u64,
    events: VecDeque<Envelope>,
}

/// The bus: `shards` bounded, sequenced event queues.
pub struct ShardedBus {
    shards: Vec<Mutex<Queue>>,
    capacity: usize,
}

impl ShardedBus {
    /// Creates a bus with `shards` queues of `capacity` events each.
    ///
    /// # Panics
    /// When `shards` or `capacity` is zero.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "bus needs at least one shard");
        assert!(capacity > 0, "shard queues must hold at least one event");
        let shards = (0..shards).map(|_| Mutex::default()).collect();
        ShardedBus { shards, capacity }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `host`'s events route to.
    #[must_use]
    pub fn shard_for(&self, host: usize) -> usize {
        shard_of(host, self.shards.len())
    }

    /// Publishes `event` to its host's shard. Returns the `(shard, seq)`
    /// stamp on success; on a full queue the event comes back as
    /// [`PublishError::Backpressure`] and no sequence number is consumed.
    pub fn publish(&self, event: SecEvent) -> Result<(usize, u64), PublishError> {
        self.publish_traced(event, None)
    }

    /// Like [`publish`](Self::publish), but stamps the envelope with the
    /// publisher's causal context so consumers can chain their own spans
    /// off it. On backpressure the *event* is handed back; the caller
    /// still holds the context and re-attaches it on retry.
    pub fn publish_traced(
        &self,
        event: SecEvent,
        trace: Option<TraceContext>,
    ) -> Result<(usize, u64), PublishError> {
        let shard = self.shard_for(event.host());
        let mut q = self.shards[shard].lock();
        if q.events.len() >= self.capacity {
            return Err(PublishError::Backpressure(event));
        }
        let seq = q.seq;
        q.seq += 1;
        q.events.push_back(Envelope {
            shard,
            seq,
            trace,
            event,
        });
        Ok((shard, seq))
    }

    /// Pops the next event from `shard`, if any.
    #[must_use]
    pub fn pop(&self, shard: usize) -> Option<Envelope> {
        self.shards[shard].lock().events.pop_front()
    }

    /// Current depth of `shard`'s queue.
    #[must_use]
    pub fn depth(&self, shard: usize) -> usize {
        self.shards[shard].lock().events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(host: usize, tick: u64) -> SecEvent {
        SecEvent::SignalTick {
            host,
            tick,
            signals: [("load", 0.1), ("lockout", 0.0)],
        }
    }

    #[test]
    fn sequences_are_gap_free_per_shard() {
        let bus = ShardedBus::new(4, 512);
        for tick in 0..40 {
            for host in 0..8 {
                bus.publish(signal(host, tick)).unwrap();
            }
        }
        for shard in 0..4 {
            let mut expected = 0;
            while let Some(env) = bus.pop(shard) {
                assert_eq!(env.shard, shard);
                assert_eq!(env.seq, expected, "shard {shard} has a seq gap");
                expected += 1;
            }
        }
    }

    #[test]
    fn backpressure_hands_the_event_back_without_burning_a_seq() {
        let bus = ShardedBus::new(1, 2);
        bus.publish(signal(0, 0)).unwrap();
        bus.publish(signal(0, 1)).unwrap();
        let Err(PublishError::Backpressure(e)) = bus.publish(signal(0, 2)) else {
            panic!("third publish must hit backpressure");
        };
        assert_eq!(e.tick(), 2);
        // Drain one and retry: the seq continues gap-free.
        assert_eq!(bus.pop(0).unwrap().seq, 0);
        let (_, seq) = bus.publish(e).unwrap();
        assert_eq!(seq, 2);
    }

    #[test]
    fn envelopes_carry_the_publishers_trace_context() {
        let bus = ShardedBus::new(2, 8);
        let ctx = TraceContext::root(9, "V-1").child("drift");
        bus.publish_traced(signal(0, 0), Some(ctx)).unwrap();
        bus.publish(signal(0, 1)).unwrap();
        let shard = bus.shard_for(0);
        assert_eq!(bus.pop(shard).unwrap().trace, Some(ctx));
        assert_eq!(
            bus.pop(shard).unwrap().trace,
            None,
            "plain publish is untraced"
        );
    }

    #[test]
    fn one_hosts_events_always_share_a_shard() {
        let bus = ShardedBus::new(7, 16);
        let s = bus.shard_for(42);
        for tick in 0..5 {
            let (shard, _) = bus.publish(signal(42, tick)).unwrap();
            assert_eq!(shard, s);
        }
    }

    #[test]
    fn concurrent_publishers_keep_each_shard_ordered() {
        use std::sync::Arc;
        let bus = Arc::new(ShardedBus::new(2, 10_000));
        let handles: Vec<_> = (0..4)
            .map(|p| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        bus.publish(signal(p % 3, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for shard in 0..2 {
            let mut expected = 0;
            while let Some(env) = bus.pop(shard) {
                assert_eq!(env.seq, expected);
                expected += 1;
            }
        }
    }
}
