//! E18: the columnar journal + deterministic replay engine.
//!
//! One invocation records a seeded SOC run through the columnar
//! [`DirWriter`] sink and reports:
//!
//! * **write path** — events/second through the segment writer (pure
//!   encode + IO, measured by re-streaming the recorded events into a
//!   fresh directory) and bytes/event on disk against the same events
//!   rendered as JSONL, with the ≥ [`JSONL_RATIO_FLOOR`]× size
//!   advantage as a budget;
//! * **compaction** — a `Warn`-floor streaming compaction of the
//!   recorded directory: events and bytes in/out, the ratio, and the
//!   forensic guarantee that 100% of the live run's incidents still
//!   resolve to their `requirement.ingested` root in the compacted
//!   output (incident chains are never torn);
//! * **replay** — latency to reconstruct fleet + SOC state at the
//!   run's final checkpoint on 1/2/4 workers (each verified
//!   digest-identical to the live run) and at a single mid-run
//!   sequence number, gated by [`REPLAY_LATENCY_BUDGET_MILLIS`];
//! * the `smoke` subsection, the CI gate: the size ratio and both
//!   replay latencies are [`Budget`] rows and must all hold at once
//!   (`within_budget`); root resolution and replay byte-identity are
//!   asserted outright.
//!
//! [`DirWriter`]: vdo_trace::DirWriter

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use serde::json::Value;
use vdo_replay::{record, Replayer, RunSpec};
use vdo_trace::{compact, DirWriter, JournalDir, JournalSink, JournalSnapshot, Severity};

use crate::budget::{verdict, Budget};

/// The pinned smoke floor: the columnar encoding must be at least this
/// many times smaller than the same events as JSONL.
pub const JSONL_RATIO_FLOOR: f64 = 3.0;

/// The pinned smoke budget for replaying to the final checkpoint (and
/// for the single replay-to-seq probe), in milliseconds. Replay
/// re-executes the deterministic simulation, so this bounds "time to
/// first answer" for a forensic what-happened-here query.
pub const REPLAY_LATENCY_BUDGET_MILLIS: f64 = 5_000.0;

/// Knobs that scale E18 between the full experiment, the CI shape, and
/// a fast test shape. All runs keep the same structure — only fleet
/// size and duration change.
#[derive(Debug, Clone)]
pub struct E18Scale {
    /// The recorded run.
    pub spec: RunSpec,
    /// Worker counts the final checkpoint is replayed on.
    pub replay_workers: Vec<usize>,
    /// Where the compacted segments are exported for the CI artifact
    /// (`None` keeps everything in the temp directory).
    pub export_dir: Option<PathBuf>,
}

impl E18Scale {
    /// The full experiment: a 128-host fleet over 500 ticks.
    #[must_use]
    pub fn full() -> Self {
        E18Scale {
            spec: RunSpec {
                seed: 11,
                trace_seed: 11,
                hosts: 128,
                duration: 500,
                drift_rate: 0.02,
                workers: 4,
                shards: 16,
                fault_rate: 0.2,
                checkpoint_period: 100,
            },
            replay_workers: vec![1, 2, 4],
            export_dir: Some(PathBuf::from("target/e18_compact")),
        }
    }

    /// The CI shape: the E14 traced-fleet workload (64 hosts, 200
    /// ticks), same assertions and gates.
    #[must_use]
    pub fn ci() -> Self {
        E18Scale {
            spec: RunSpec {
                seed: 11,
                trace_seed: 11,
                hosts: 64,
                duration: 200,
                drift_rate: 0.02,
                workers: 4,
                shards: 16,
                fault_rate: 0.2,
                checkpoint_period: 50,
            },
            replay_workers: vec![1, 2, 4],
            export_dir: Some(PathBuf::from("target/e18_compact")),
        }
    }

    /// A reduced shape for tests: a handful of hosts, identical
    /// structure and assertions, nothing exported.
    #[must_use]
    pub fn tiny() -> Self {
        E18Scale {
            spec: RunSpec {
                seed: 23,
                trace_seed: 5,
                hosts: 6,
                duration: 60,
                drift_rate: 0.05,
                workers: 2,
                shards: 8,
                fault_rate: 0.3,
                checkpoint_period: 20,
            },
            replay_workers: vec![1, 2],
            export_dir: None,
        }
    }
}

/// Runs the E18 journal + replay experiment and returns the section
/// JSON with the smoke budget rows: the columnar encoding beats JSONL
/// by the pinned factor and both replays finish within the latency
/// budget. Asserts the correctness claims in-function: compaction
/// preserves every incident's root resolution and every replay is
/// digest-identical to the live run.
#[must_use]
pub fn section(scale: &E18Scale) -> (Value, Vec<Budget>) {
    crate::say!("\n== E18: columnar journal + deterministic replay ==");
    let spec = scale.spec;
    let tmp = std::env::temp_dir().join(format!("vdo-e18-{}", std::process::id()));
    let journal_dir = tmp.join("journal");
    let _ = std::fs::remove_dir_all(&tmp);

    // ---- Record the live run through the columnar sink. ----
    let t0 = Instant::now();
    let rec = record(&spec, &journal_dir).expect("recording succeeds");
    let record_secs = t0.elapsed().as_secs_f64();
    assert!(
        !rec.report.incidents.is_empty(),
        "workload must raise incidents"
    );
    let disk = JournalDir::open(&journal_dir).expect("journal dir reopens");
    let events = disk.events().expect("journal decodes");
    let columnar_bytes = disk.total_bytes().expect("segment sizes");
    let event_count = events.len() as u64;

    // ---- Write path: pure encode+IO throughput, re-streaming the
    // same events into a fresh directory. ----
    let rewrite_dir = tmp.join("rewrite");
    let t0 = Instant::now();
    let mut writer =
        DirWriter::create(&rewrite_dir, &spec.to_header()).expect("rewrite dir creates");
    for (seq, event) in &events {
        writer.record(*seq, event);
    }
    writer.flush();
    drop(writer);
    let write_secs = t0.elapsed().as_secs_f64();

    // ---- Size against JSONL over the identical event stream. ----
    let (seqs, plain): (Vec<u64>, Vec<_>) = events.iter().cloned().unzip();
    let snapshot = JournalSnapshot {
        events: plain,
        seqs,
        dropped_per_shard: Vec::new(),
    };
    let jsonl_bytes = vdo_trace::export::jsonl(&snapshot).len() as u64;
    drop(snapshot);
    #[allow(clippy::cast_precision_loss)]
    let jsonl_ratio = jsonl_bytes as f64 / columnar_bytes.max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let write_events_per_sec = event_count as f64 / write_secs.max(f64::EPSILON);
    #[allow(clippy::cast_precision_loss)]
    let bytes_per_event = columnar_bytes as f64 / event_count.max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let jsonl_bytes_per_event = jsonl_bytes as f64 / event_count.max(1) as f64;
    crate::say!(
        "   write: {event_count} events in {:.1} ms ({:.0} events/s pure encode+IO; \
         record incl. simulation {:.1} ms)",
        write_secs * 1e3,
        write_events_per_sec,
        record_secs * 1e3
    );
    crate::say!(
        "   size: columnar {columnar_bytes} B ({bytes_per_event:.1} B/event) vs JSONL \
         {jsonl_bytes} B ({jsonl_bytes_per_event:.1} B/event) -> {jsonl_ratio:.2}x smaller \
         (floor {JSONL_RATIO_FLOOR:.0}x)"
    );

    // ---- Compaction: Warn floor, incident chains kept whole. ----
    let compact_dir = match &scale.export_dir {
        Some(dir) => dir.clone(),
        None => tmp.join("compact"),
    };
    let _ = std::fs::remove_dir_all(&compact_dir);
    let stats = compact(
        &journal_dir,
        &compact_dir,
        Severity::Warn,
        vdo_trace::colfmt::DEFAULT_EVENTS_PER_SEGMENT,
    )
    .expect("compaction succeeds");
    let compacted = JournalDir::open(&compact_dir)
        .expect("compacted dir reopens")
        .events()
        .expect("compacted dir decodes");
    let roots: HashSet<u64> = compacted
        .iter()
        .filter(|(_, e)| e.name == "requirement.ingested")
        .filter_map(|(_, e)| e.trace.map(|t| t.trace_id.0))
        .collect();
    let traced_incidents = rec
        .report
        .incidents
        .iter()
        .filter(|i| i.trace.is_some())
        .count();
    let resolved = rec
        .report
        .incidents
        .iter()
        .filter(|i| i.trace.is_some_and(|t| roots.contains(&t.trace_id.0)))
        .count();
    #[allow(clippy::cast_precision_loss)]
    let root_resolution_pct = 100.0 * resolved as f64 / traced_incidents.max(1) as f64;
    crate::say!(
        "   compaction: {} -> {} events, {} -> {} B ({:.2}x), {} protected traces; \
         incident root resolution {resolved}/{traced_incidents} ({root_resolution_pct:.0}%)",
        stats.events_in,
        stats.events_out,
        stats.bytes_in,
        stats.bytes_out,
        stats.ratio(),
        stats.protected_traces
    );
    assert!(
        traced_incidents > 0 && resolved == traced_incidents,
        "compaction must preserve every incident's root-resolution chain \
         ({resolved}/{traced_incidents})"
    );

    // ---- Replay: final checkpoint on each worker count, verified. ----
    let replayer = Replayer::open(&journal_dir).expect("replayer opens");
    let last = replayer.checkpoints().len() - 1;
    let mut replay_rows = Vec::new();
    let mut max_replay_millis = 0.0_f64;
    for &workers in &scale.replay_workers {
        let t0 = Instant::now();
        let cp = replayer
            .replay_to_checkpoint(last, Some(workers))
            .expect("recorded checkpoint replays");
        let millis = t0.elapsed().as_secs_f64() * 1e3;
        max_replay_millis = max_replay_millis.max(millis);
        crate::say!(
            "   replay: checkpoint @{} on {workers} worker(s) in {millis:.1} ms \
             (journal match: {}, verdict match: {})",
            cp.checkpoint.tick,
            cp.journal_match,
            cp.verdict_match
        );
        assert!(
            cp.journal_match && cp.verdict_match,
            "replay on {workers} worker(s) must be digest-identical to the live run"
        );
        replay_rows.push(serde::json::object([
            ("workers", Value::UInt(workers as u64)),
            ("tick", Value::UInt(cp.checkpoint.tick)),
            ("events", Value::UInt(cp.checkpoint.events)),
            ("millis", Value::Float(millis)),
            ("journal_match", Value::Bool(cp.journal_match)),
            ("verdict_match", Value::Bool(cp.verdict_match)),
        ]));
    }

    // ---- Replay-to-seq: one mid-run probe through the block index. ----
    let mid_seq = events[events.len() / 2].0;
    let t0 = Instant::now();
    let outcome = replayer
        .replay_to_seq(mid_seq, Some(1))
        .expect("mid-run seq replays");
    let seq_millis = t0.elapsed().as_secs_f64() * 1e3;
    crate::say!(
        "   replay-to-seq: seq {mid_seq} -> state after tick {} in {seq_millis:.1} ms",
        outcome.tick.saturating_sub(1)
    );

    // ---- Smoke: the CI budget gate. ----
    let budgets = vec![
        Budget::at_least(
            "e18_journal_replay.smoke.jsonl_ratio",
            jsonl_ratio,
            JSONL_RATIO_FLOOR,
        ),
        Budget::at_most(
            "e18_journal_replay.smoke.max_replay_millis",
            max_replay_millis,
            REPLAY_LATENCY_BUDGET_MILLIS,
        ),
        Budget::at_most(
            "e18_journal_replay.smoke.replay_to_seq_millis",
            seq_millis,
            REPLAY_LATENCY_BUDGET_MILLIS,
        ),
    ];
    let within_budget = verdict(&budgets).is_ok();
    crate::say!(
        "   smoke: ratio {jsonl_ratio:.2}x (floor {JSONL_RATIO_FLOOR:.0}x), root resolution \
         {root_resolution_pct:.0}%, max replay {max_replay_millis:.1} ms (budget \
         {REPLAY_LATENCY_BUDGET_MILLIS:.0} ms) -> within_budget={within_budget}"
    );
    if let Some(dir) = &scale.export_dir {
        crate::say!("   exported compacted segments to {}", dir.display());
    }

    let _ = std::fs::remove_dir_all(&tmp);
    let json = serde::json::object([
        (
            "write",
            serde::json::object([
                ("events", Value::UInt(event_count)),
                ("record_secs", Value::Float(record_secs)),
                ("write_secs", Value::Float(write_secs)),
                ("events_per_sec", Value::Float(write_events_per_sec)),
            ]),
        ),
        (
            "size",
            serde::json::object([
                ("columnar_bytes", Value::UInt(columnar_bytes)),
                ("jsonl_bytes", Value::UInt(jsonl_bytes)),
                ("bytes_per_event", Value::Float(bytes_per_event)),
                ("jsonl_bytes_per_event", Value::Float(jsonl_bytes_per_event)),
                ("jsonl_ratio", Value::Float(jsonl_ratio)),
                ("ratio_floor", Value::Float(JSONL_RATIO_FLOOR)),
            ]),
        ),
        (
            "compaction",
            serde::json::object([
                ("events_in", Value::UInt(stats.events_in)),
                ("events_out", Value::UInt(stats.events_out)),
                ("bytes_in", Value::UInt(stats.bytes_in)),
                ("bytes_out", Value::UInt(stats.bytes_out)),
                ("ratio", Value::Float(stats.ratio())),
                ("protected_traces", Value::UInt(stats.protected_traces)),
                ("incidents", Value::UInt(traced_incidents as u64)),
                ("roots_resolved", Value::UInt(resolved as u64)),
                ("root_resolution_pct", Value::Float(root_resolution_pct)),
            ]),
        ),
        ("replay", Value::Array(replay_rows)),
        (
            "replay_to_seq",
            serde::json::object([
                ("seq", Value::UInt(mid_seq)),
                ("millis", Value::Float(seq_millis)),
            ]),
        ),
        (
            "smoke",
            serde::json::object([
                ("jsonl_ratio", Value::Float(jsonl_ratio)),
                ("ratio_floor", Value::Float(JSONL_RATIO_FLOOR)),
                ("root_resolution_pct", Value::Float(root_resolution_pct)),
                ("max_replay_millis", Value::Float(max_replay_millis)),
                ("replay_to_seq_millis", Value::Float(seq_millis)),
                (
                    "replay_budget_millis",
                    Value::Float(REPLAY_LATENCY_BUDGET_MILLIS),
                ),
                ("within_budget", Value::Bool(within_budget)),
            ]),
        ),
    ]);
    (json, budgets)
}
