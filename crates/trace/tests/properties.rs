//! Property tests for the journal's three load-bearing guarantees:
//! no losses below capacity under concurrent emitters, exact drop
//! accounting above capacity, and emission-order independence of the
//! snapshot fingerprint (the worker-count-invariance contract) — plus
//! the columnar reader's: a filtered scan returns exactly the rows a
//! full decode would keep.

use proptest::prelude::*;

use vdo_trace::{
    DirWriter, Event, FieldValue, Journal, JournalConfig, JournalDir, JournalSink, Severity,
    TraceContext,
};

/// A deterministic event stream: a mix of traced (varying roots, so
/// events spread across shards) and untraced events.
fn stream(seed: u64, n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let event = Event::info("prop.stream")
                .at(i as u64)
                .field("i", i)
                .field("seed", seed);
            if i % 3 == 0 {
                event
            } else {
                let root = TraceContext::root(seed, &format!("R-{}", i % 7));
                event.trace(root.child_u64("step", i as u64))
            }
        })
        .collect()
}

/// Field keys for [`columnar_row`]: seven, so a row can hold more than
/// the four fields `Fields` keeps inline.
const KEYS: [&str; 7] = ["host", "rule", "latency", "ok", "delta", "note", "extra"];
const NAMES: [&str; 4] = [
    "soc.drift",
    "soc.detection",
    "requirement.ingested",
    "slo.alert",
];
const SEVERITIES: [Severity; 4] = [
    Severity::Debug,
    Severity::Info,
    Severity::Warn,
    Severity::Error,
];

/// Row `i` of a generated columnar stream. Every third block of
/// `block_events` rows is Debug-only, so severity floors skip it by
/// the block index. `trace` picks no trace (0), a root without a
/// parent (1) or a child span (2, 3).
fn columnar_row(
    i: usize,
    block_events: usize,
    (at, sev, trace, fields, v): (u64, usize, u8, usize, u64),
) -> Event {
    let severity = if (i / block_events) % 3 == 1 {
        Severity::Debug
    } else {
        SEVERITIES[sev]
    };
    let mut event = Event::new(NAMES[(v % 4) as usize], severity).at(at);
    let root = TraceContext::root(v, "R");
    match trace {
        0 => {}
        1 => event = event.trace(root),
        _ => event = event.trace(root.child_u64("step", i as u64)),
    }
    for (j, key) in KEYS.iter().enumerate().take(fields) {
        let value = match (v as usize + j) % 5 {
            0 => FieldValue::U64(v * 7 + j as u64),
            1 => FieldValue::I64(-(v as i64) - j as i64),
            2 => FieldValue::F64(v as f64 / 8.0),
            3 => FieldValue::Bool(v % 2 == 0),
            _ => FieldValue::Str(format!("s-{}", (v + j as u64) % 13)),
        };
        event.fields.push(key, value);
    }
    event
}

proptest! {
    /// `events_where(floor, lo, hi)` returns exactly `events()` filtered
    /// by the same floor and seq range: skipping blocks by the index and
    /// rows before their fields are decoded drops nothing it should keep
    /// and keeps nothing it should drop.
    #[test]
    fn filtered_decode_equals_filtered_full_decode(
        rows in prop::collection::vec(
            (0u64..4, 0usize..4, 0u8..4, 0usize..8, 0u64..1_000),
            1..400,
        ),
        gaps in prop::collection::vec(1u64..4, 400..401),
        block_events in 1usize..40,
        per_segment in 20u64..300,
        floor in 0usize..5,
        bounds in (0u64..1_200, 0u64..1_200, 0u8..4),
    ) {
        let (lo, hi, bounded) = bounds;
        let dir = std::env::temp_dir()
            .join(format!("vdo-trace-filtered-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Ticks step forward and sometimes fall back to 0, as
        // development-phase events do.
        let (mut seq, mut at) = (0u64, 0u64);
        let mut written = Vec::new();
        {
            let mut sink = DirWriter::with_limits(&dir, "prop", per_segment, block_events).unwrap();
            for (i, row) in rows.iter().enumerate() {
                seq += gaps[i];
                at = if row.0 == 3 { 0 } else { at + row.0 };
                let event = columnar_row(i, block_events, (at, row.1, row.2, row.3, row.4));
                sink.record(seq, &event);
                written.push((seq, event));
            }
        }
        let journal = JournalDir::open(&dir).unwrap();
        let all = journal.events().unwrap();
        prop_assert_eq!(&all, &written);

        let floor = SEVERITIES.get(floor).copied();
        let lo = (bounded & 1 != 0).then_some(lo);
        let hi = (bounded & 2 != 0).then_some(hi);
        let expected: Vec<_> = all
            .into_iter()
            .filter(|(s, e)| {
                floor.is_none_or(|f| e.severity >= f)
                    && lo.is_none_or(|lo| *s >= lo)
                    && hi.is_none_or(|hi| *s <= hi)
            })
            .collect();
        prop_assert_eq!(journal.events_where(floor, lo, hi).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent emitters below capacity lose nothing: every event
    /// lands, drop counters stay zero, regardless of thread count and
    /// shard count.
    #[test]
    fn concurrent_emitters_lose_nothing_below_capacity(
        seed in 0u64..1_000,
        threads in 1usize..6,
        per_thread in 1usize..300,
        shards in 1usize..6,
    ) {
        let journal = Journal::with_config(JournalConfig {
            shards,
            // Worst case routes every event to one shard.
            capacity_per_shard: threads * per_thread,
            min_severity: Severity::Debug,
        });
        std::thread::scope(|scope| {
            for t in 0..threads {
                let journal = journal.clone();
                let mine = stream(seed.wrapping_add(t as u64), per_thread);
                scope.spawn(move || {
                    for event in mine {
                        journal.emit(event);
                    }
                });
            }
        });
        prop_assert_eq!(journal.len(), threads * per_thread);
        prop_assert_eq!(journal.dropped(), 0);
        prop_assert_eq!(journal.snapshot().dropped(), 0);
    }

    /// Above capacity the journal keeps the oldest events (lossy tail)
    /// and its drop counter records *exactly* how many were lost.
    #[test]
    fn full_shards_record_exact_drop_counts(
        capacity in 1usize..32,
        emitted in 0usize..96,
    ) {
        let journal = Journal::with_config(JournalConfig {
            shards: 1,
            capacity_per_shard: capacity,
            min_severity: Severity::Debug,
        });
        for i in 0..emitted {
            journal.emit(Event::info("prop.flood").at(i as u64));
        }
        prop_assert_eq!(journal.len(), emitted.min(capacity));
        prop_assert_eq!(journal.dropped(), emitted.saturating_sub(capacity) as u64);
        let snap = journal.snapshot();
        prop_assert_eq!(snap.dropped(), journal.dropped());
        // Survivors are the oldest events, in emission order.
        for (i, event) in snap.events.iter().enumerate() {
            prop_assert_eq!(event.at, i as u64);
        }
    }

    /// Severity filtering is not loss: events below the floor vanish
    /// without touching the drop counters.
    #[test]
    fn severity_floor_is_not_counted_as_loss(n in 0usize..200) {
        let journal = Journal::with_config(JournalConfig {
            min_severity: Severity::Warn,
            ..JournalConfig::default()
        });
        for i in 0..n {
            journal.emit(Event::debug("prop.noise").at(i as u64));
            journal.emit(Event::warn("prop.finding").at(i as u64));
        }
        prop_assert_eq!(journal.len(), n);
        prop_assert_eq!(journal.dropped(), 0);
    }

    /// Splitting one event multiset across any number of worker
    /// threads fingerprints identically to sequential emission — the
    /// contract that lets equal-seed engine runs compare journals at
    /// any worker count.
    #[test]
    fn parallel_and_sequential_emission_fingerprint_identically(
        seed in 0u64..1_000,
        n in 1usize..300,
        workers in 1usize..7,
    ) {
        let events = stream(seed, n);

        let sequential = Journal::new();
        for event in &events {
            sequential.emit(event.clone());
        }

        let parallel = Journal::new();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let parallel = parallel.clone();
                let mine: Vec<Event> =
                    events.iter().skip(w).step_by(workers).cloned().collect();
                scope.spawn(move || {
                    for event in mine {
                        parallel.emit(event);
                    }
                });
            }
        });

        prop_assert_eq!(parallel.len(), sequential.len());
        prop_assert_eq!(
            sequential.snapshot().fingerprint(),
            parallel.snapshot().fingerprint()
        );
    }
}
