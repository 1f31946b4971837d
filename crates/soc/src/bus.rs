//! The sharded security-event bus.
//!
//! `shards` independent bounded queues, each one mutex over a sequence
//! counter and a FIFO of envelopes. Routing is by host ([`shard_of`]),
//! so all events of one host flow through one shard in a gap-free total
//! order — the serialization unit the work-stealing runtime preserves.
//!
//! Publishing never blocks: a full shard queue reports
//! [`PublishError::Backpressure`] and hands the event back, letting the
//! publisher apply its own deferral policy (the engine re-publishes
//! deferred events at the start of the next tick, which is where nonzero
//! detection latency comes from in an overloaded SOC).
//!
//! Besides the per-event [`publish`](ShardedBus::publish) /
//! [`pop`](ShardedBus::pop) pair, the bus moves whole batches under one
//! lock each: [`publish_batch`](ShardedBus::publish_batch) hands a
//! publisher's staged events to a shard, and
//! [`take_all`](ShardedBus::take_all) gives a consumer everything queued
//! on a shard. The engine uses these once per shard per tick, which
//! keeps the locking and cache traffic of its telemetry firehose off the
//! per-event path.

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

    /// Per-shard queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
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

    /// Publishes the front of `batch` — events staged for `shard`, each
    /// with its publisher's causal context — under one lock, stamping
    /// gap-free seqs in staging order. As many events land as the queue
    /// has room for; the rest stay in `batch`, in order, for the caller
    /// to defer. Returns how many landed.
    ///
    /// Every staged event must route to `shard` (checked in debug
    /// builds).
    pub fn publish_batch(
        &self,
        shard: usize,
        batch: &mut Vec<(SecEvent, Option<TraceContext>)>,
    ) -> usize {
        let mut q = self.shards[shard].lock();
        let landed = batch
            .len()
            .min(self.capacity.saturating_sub(q.events.len()));
        let first = q.seq;
        q.seq += landed as u64;
        q.events.extend(
            batch
                .drain(..landed)
                .zip(first..)
                .map(|((event, trace), seq)| {
                    debug_assert_eq!(
                        self.shard_for(event.host()),
                        shard,
                        "event routed elsewhere"
                    );
                    Envelope {
                        shard,
                        seq,
                        trace,
                        event,
                    }
                }),
        );
        landed
    }

    /// Pops the next event from `shard`, if any.
    #[must_use]
    pub fn pop(&self, shard: usize) -> Option<Envelope> {
        self.shards[shard].lock().events.pop_front()
    }

    /// Moves every event queued on `shard` to the back of `into`, in
    /// FIFO order, under one lock. When `into` is empty the two buffers
    /// are swapped, so the shard keeps `into`'s allocation for its next
    /// batch and a consumer that drains `into` between calls recycles
    /// the same two buffers forever.
    pub fn take_all(&self, shard: usize, into: &mut VecDeque<Envelope>) {
        let mut q = self.shards[shard].lock();
        if into.is_empty() {
            std::mem::swap(&mut q.events, into);
        } else {
            into.append(&mut q.events);
        }
    }

    /// Current depth of `shard`'s queue.
    #[must_use]
    pub fn depth(&self, shard: usize) -> usize {
        self.shards[shard].lock().events.len()
    }

    /// `true` iff every shard queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|s| self.depth(s) == 0)
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
    fn batched_and_single_publishes_share_one_gap_free_sequence() {
        let bus = ShardedBus::new(1, 64);
        let mut batch = Vec::new();
        let mut tick = 0;
        for round in 0..6 {
            bus.publish(signal(0, tick)).unwrap();
            tick += 1;
            for _ in 0..round {
                batch.push((signal(0, tick), None));
                tick += 1;
            }
            assert_eq!(bus.publish_batch(0, &mut batch), round);
            assert!(batch.is_empty());
        }
        let mut taken = VecDeque::new();
        bus.take_all(0, &mut taken);
        assert!(bus.is_empty());
        let seqs: Vec<u64> = taken.iter().map(|e| e.seq).collect();
        let ticks: Vec<u64> = taken.iter().map(|e| e.event.tick()).collect();
        assert_eq!(seqs, (0..tick).collect::<Vec<_>>(), "seqs stay gap-free");
        assert_eq!(ticks, (0..tick).collect::<Vec<_>>(), "publish order kept");
    }

    #[test]
    fn a_full_shard_keeps_the_batch_overflow_without_burning_seqs() {
        let bus = ShardedBus::new(1, 3);
        bus.publish(signal(0, 0)).unwrap();
        let mut batch: Vec<_> = (1..5).map(|t| (signal(0, t), None)).collect();
        assert_eq!(bus.publish_batch(0, &mut batch), 2, "room for two");
        let left: Vec<u64> = batch.iter().map(|(e, _)| e.tick()).collect();
        assert_eq!(left, [3, 4], "the overflow stays staged, in order");
        assert_eq!(
            bus.publish_batch(0, &mut batch),
            0,
            "a full shard takes none"
        );
        assert!(matches!(
            bus.publish(signal(0, 9)),
            Err(PublishError::Backpressure(_))
        ));
        assert_eq!(bus.pop(0).unwrap().seq, 0);
        assert_eq!(bus.publish_batch(0, &mut batch), 1);
        assert_eq!(bus.pop(0).unwrap().seq, 1);
        let (_, seq) = bus.publish(batch.pop().unwrap().0).unwrap();
        assert_eq!(seq, 4, "no seq consumed by the rejected publishes");
    }

    #[test]
    fn take_all_returns_the_queue_in_fifo_order() {
        let bus = ShardedBus::new(2, 16);
        let shard = bus.shard_for(5);
        for tick in 0..10 {
            bus.publish(signal(5, tick)).unwrap();
        }
        let mut into = VecDeque::new();
        bus.take_all(shard, &mut into);
        assert_eq!(bus.depth(shard), 0);
        assert!(bus.pop(shard).is_none());
        let ticks: Vec<u64> = into.iter().map(|e| e.event.tick()).collect();
        assert_eq!(ticks, (0..10).collect::<Vec<_>>());
        // A non-empty buffer is appended to, not replaced.
        bus.publish(signal(5, 10)).unwrap();
        bus.take_all(shard, &mut into);
        assert_eq!(into.len(), 11);
        assert_eq!(into.back().unwrap().seq, 10);
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
