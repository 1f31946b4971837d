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

/// The batch path against the path of one event at a time, and the
/// segment-parallel directory scan against a sequential scan of its
/// segments. `ci.sh` runs this module in release at a raised
/// `PROPTEST_CASES`, and once more on one CPU.
mod equivalence {
    use std::io;
    use std::path::{Path, PathBuf};

    use proptest::prelude::*;

    use vdo_trace::{
        DirWriter, Event, Journal, JournalConfig, JournalDir, JournalSink, MemorySink,
        SegmentReader, Severity, TraceContext,
    };

    use super::{columnar_row, SEVERITIES};

    /// Event `i` of a stream with mixed severities, names and traces,
    /// so it spreads over the ring shards and meets any floor.
    fn mixed(i: usize, (sev, trace): (usize, u8)) -> Event {
        let mut event = Event::new(["a", "b", "c"][i % 3], SEVERITIES[sev])
            .at(i as u64 / 3)
            .field("i", i);
        if trace > 0 {
            let root = TraceContext::root(u64::from(trace), "batch");
            event = event.trace(root.child_u64("i", i as u64));
        }
        event
    }

    /// A journal with a memory sink, and the sink's shared buffer.
    fn journal(config: JournalConfig) -> (Journal, vdo_trace::journal::MemoryEntries) {
        let sink = MemorySink::new();
        let entries = sink.entries();
        (Journal::with_sink(config, Box::new(sink)), entries)
    }

    /// A fresh directory for one test case.
    fn fresh(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdo-trace-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `rows` (see [`columnar_row`]) into a multi-segment
    /// directory and returns what was written, with seqs 0, 2, 4, ….
    fn write_dir(
        dir: &Path,
        rows: &[(u64, usize, u8, usize, u64)],
        per_segment: u64,
        block_events: usize,
    ) -> Vec<(u64, Event)> {
        let mut sink = DirWriter::with_limits(dir, "equivalence", per_segment, block_events)
            .expect("journal dir");
        let mut at = 0u64;
        let mut written = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            at += row.0;
            let event = columnar_row(i, block_events, (at, row.1, row.2, row.3, row.4));
            sink.record(2 * i as u64, &event);
            written.push((2 * i as u64, event));
        }
        written
    }

    /// The scan [`JournalDir::events_where`] replaces: each segment in
    /// turn, stopping at the first error.
    fn sequential(
        dir: &JournalDir,
        floor: Option<Severity>,
        lo: Option<u64>,
        hi: Option<u64>,
    ) -> io::Result<Vec<(u64, Event)>> {
        let mut out = Vec::new();
        for path in dir.segment_paths() {
            out.extend(SegmentReader::open(path)?.events_where(floor, lo, hi)?);
        }
        Ok(out)
    }

    /// Two scan results are equal, errors by kind and text.
    fn same(
        got: &io::Result<Vec<(u64, Event)>>,
        want: &io::Result<Vec<(u64, Event)>>,
    ) -> Result<(), TestCaseError> {
        match (got, want) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(got), Err(want)) => {
                prop_assert_eq!(got.kind(), want.kind());
                prop_assert_eq!(got.to_string(), want.to_string());
            }
            _ => prop_assert!(false, "got {:?}, a sequential scan gives {:?}", got, want),
        }
        Ok(())
    }

    proptest! {
        /// Emitting a stream in batches (random cuts, empty batches
        /// included) gives what emitting it one event at a time gives:
        /// the same seqs and sink stream, ring contents, drop counts and
        /// fingerprint — over random shard counts, capacities (full
        /// rings included) and severity floors.
        #[test]
        fn batch_emit_equals_one_at_a_time(
            events in prop::collection::vec((0usize..4, 0u8..6), 0..200),
            cuts in prop::collection::vec(0usize..200, 0..12),
            shards in 1usize..6,
            capacity in 1usize..40,
            floor in 0usize..4,
        ) {
            let config = JournalConfig {
                shards,
                capacity_per_shard: capacity,
                min_severity: SEVERITIES[floor],
            };
            let events: Vec<Event> =
                events.into_iter().enumerate().map(|(i, e)| mixed(i, e)).collect();
            let (single, single_sink) = journal(config);
            for event in &events {
                single.emit(event.clone());
            }
            let (batched, batched_sink) = journal(config);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(events.len())).collect();
            cuts.push(0);
            cuts.push(events.len());
            cuts.sort_unstable();
            for pair in cuts.windows(2) {
                batched.emit_all(events[pair[0]..pair[1]].iter().cloned());
            }
            prop_assert_eq!(batched.accepted(), single.accepted());
            prop_assert_eq!(batched.dropped(), single.dropped());
            prop_assert_eq!(batched.len(), single.len());
            prop_assert_eq!(&*batched_sink.lock().unwrap(), &*single_sink.lock().unwrap());
            let (b, s) = (batched.snapshot(), single.snapshot());
            prop_assert_eq!(b.fingerprint(), s.fingerprint());
            prop_assert_eq!(b, s);
        }

        /// On a multi-segment directory the segment-parallel scan
        /// equals the per-segment scans concatenated, for random
        /// severity and seq filters; `event_count`, `header` and
        /// `tick_for_seq` answer from the kept indexes as before.
        #[test]
        fn dir_scan_equals_sequential_segment_scans(
            rows in prop::collection::vec(
                (0u64..3, 0usize..4, 0u8..4, 0usize..6, 0u64..1_000),
                1..300,
            ),
            block_events in 1usize..24,
            per_segment in 5u64..80,
            floor in 0usize..5,
            bounds in (0u64..650, 0u64..650, 0u8..4),
            probes in prop::collection::vec(0u64..650, 1..6),
        ) {
            let dir = fresh("dir-scan");
            let written = write_dir(&dir, &rows, per_segment, block_events);
            let journal = JournalDir::open(&dir).unwrap();
            prop_assert!(journal.segment_paths().len() as u64 >= (rows.len() as u64).div_ceil(per_segment));
            let (lo, hi, bounded) = bounds;
            let floor = SEVERITIES.get(floor).copied();
            let lo = (bounded & 1 != 0).then_some(lo);
            let hi = (bounded & 2 != 0).then_some(hi);
            // Twice: the first call loads the indexes, the second reuses them.
            for _ in 0..2 {
                same(&journal.events_where(floor, lo, hi), &sequential(&journal, floor, lo, hi))?;
            }
            prop_assert_eq!(journal.events().unwrap(), written.clone());
            prop_assert_eq!(journal.event_count().unwrap(), written.len() as u64);
            prop_assert_eq!(journal.header().unwrap(), "equivalence");
            for seq in probes {
                let want = written.iter().find(|(s, _)| *s == seq).map(|(_, e)| e.at);
                prop_assert_eq!(journal.tick_for_seq(seq).unwrap(), want);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// A bit-flipped or truncated middle segment gives a scan the
        /// result a sequential scan gives — the same typed error (no
        /// partial result), or, for a flip the codec cannot see, the
        /// same rows — and never a panic.
        #[test]
        fn corrupt_middle_segment_fails_like_a_sequential_scan(
            rows in prop::collection::vec(
                (0u64..3, 0usize..4, 0u8..4, 0usize..6, 0u64..1_000),
                60..200,
            ),
            block_events in 2usize..16,
            at in 0usize..1 << 20,
            bit in 0u8..8,
            truncate in 0u8..2,
            floor in 0usize..5,
        ) {
            let dir = fresh("corrupt");
            let per_segment = (rows.len() as u64).div_ceil(3);
            write_dir(&dir, &rows, per_segment, block_events);
            let paths = JournalDir::open(&dir).unwrap().segment_paths().to_vec();
            prop_assert_eq!(paths.len(), 3);
            let mut bytes = std::fs::read(&paths[1]).unwrap();
            let at = at % bytes.len();
            let truncate = truncate == 1;
            if truncate {
                bytes.truncate(at);
            } else {
                bytes[at] ^= 1 << bit;
            }
            std::fs::write(&paths[1], &bytes).unwrap();
            let floor = SEVERITIES.get(floor).copied();
            let journal = JournalDir::open(&dir).unwrap();
            let want = sequential(&journal, floor, None, None);
            if truncate {
                prop_assert_eq!(
                    want.as_ref().map(|_| ()).unwrap_err().kind(),
                    io::ErrorKind::InvalidData
                );
            }
            same(&journal.events_where(floor, None, None), &want)?;
            same(&journal.events(), &sequential(&journal, None, None, None))?;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A thread emitting batches and a thread taking snapshots (plus
    /// single emits, `len` and `sync`) finish: batches take the sink
    /// lock, then the ring locks in index order, which is the order a
    /// snapshot takes them in, so no lock-order cycle can form.
    #[test]
    fn batches_and_snapshots_never_deadlock() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (journal, _) = journal(JournalConfig {
                shards: 4,
                capacity_per_shard: 256,
                min_severity: Severity::Debug,
            });
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for round in 0..400usize {
                        journal.emit_all(
                            (0..32).map(|i| mixed(round * 32 + i, (i % 4, 1 + (i % 5) as u8))),
                        );
                        journal.emit(mixed(round, (2, 0)));
                    }
                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                });
                scope.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                        let snap = journal.snapshot();
                        assert!(snap.seqs.windows(2).all(|w| w[0] < w[1]));
                        let _ = journal.len();
                        journal.sync();
                    }
                });
            });
            assert_eq!(journal.accepted(), 400 * 33);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("batches and snapshots deadlocked (or a thread panicked)");
    }
}
