//! Validates the JSON shape of the E18 section that
//! `exp_report --json` embeds: every consumer-visible key, including
//! `e18_journal_replay.smoke.within_budget` (the AND of the section's budget
//! rows), must be present with the right type.

use serde::json::Value;
use vdo_bench::e18::{section, E18Scale, JSONL_RATIO_FLOOR, REPLAY_LATENCY_BUDGET_MILLIS};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field `{key}`")),
        other => panic!("expected object around `{key}`, got {other:?}"),
    }
}

fn as_uint(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        other => panic!("expected uint, got {other:?}"),
    }
}

fn as_float(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => panic!("expected float, got {other:?}"),
    }
}

fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

#[test]
fn e18_section_has_the_documented_shape() {
    let scale = E18Scale::tiny();
    let (doc, _) = section(&scale);

    // -- write path: throughput over a nonempty stream. -----------------
    let write = field(&doc, "write");
    let events = as_uint(field(write, "events"));
    assert!(events > 0, "the recorded run must journal events");
    assert!(as_float(field(write, "record_secs")) > 0.0);
    assert!(as_float(field(write, "write_secs")) > 0.0);
    assert!(as_float(field(write, "events_per_sec")) > 0.0);

    // -- size: the columnar advantage holds and is self-consistent. -----
    let size = field(&doc, "size");
    let columnar = as_uint(field(size, "columnar_bytes"));
    let jsonl = as_uint(field(size, "jsonl_bytes"));
    let ratio = as_float(field(size, "jsonl_ratio"));
    assert!(columnar > 0 && jsonl > columnar);
    #[allow(clippy::cast_precision_loss)]
    let expect = jsonl as f64 / columnar as f64;
    assert!((ratio - expect).abs() < 1e-9, "ratio = jsonl / columnar");
    assert!(ratio >= JSONL_RATIO_FLOOR);
    assert!((as_float(field(size, "ratio_floor")) - JSONL_RATIO_FLOOR).abs() < 1e-9);
    assert!(as_float(field(size, "bytes_per_event")) > 0.0);
    assert!(as_float(field(size, "jsonl_bytes_per_event")) > 0.0);

    // -- compaction: below-floor events dropped, chains kept whole. -----
    let compaction = field(&doc, "compaction");
    let events_in = as_uint(field(compaction, "events_in"));
    let events_out = as_uint(field(compaction, "events_out"));
    assert_eq!(events_in, events);
    assert!(events_out < events_in, "the Warn floor must drop noise");
    assert!(as_uint(field(compaction, "bytes_out")) < as_uint(field(compaction, "bytes_in")));
    assert!(as_float(field(compaction, "ratio")) > 1.0);
    assert!(as_uint(field(compaction, "protected_traces")) > 0);
    let incidents = as_uint(field(compaction, "incidents"));
    assert!(incidents > 0);
    assert_eq!(as_uint(field(compaction, "roots_resolved")), incidents);
    assert!((as_float(field(compaction, "root_resolution_pct")) - 100.0).abs() < 1e-9);

    // -- replay: one verified row per worker count. ---------------------
    let replay = as_array(field(&doc, "replay"));
    assert_eq!(replay.len(), scale.replay_workers.len());
    for (row, &workers) in replay.iter().zip(&scale.replay_workers) {
        assert_eq!(as_uint(field(row, "workers")), workers as u64);
        assert_eq!(as_uint(field(row, "tick")), scale.spec.duration);
        assert!(as_uint(field(row, "events")) > 0);
        assert!(as_float(field(row, "millis")) > 0.0);
        assert!(matches!(field(row, "journal_match"), Value::Bool(true)));
        assert!(matches!(field(row, "verdict_match"), Value::Bool(true)));
    }
    let seq_probe = field(&doc, "replay_to_seq");
    assert!(as_uint(field(seq_probe, "seq")) > 0);
    assert!(as_float(field(seq_probe, "millis")) > 0.0);

    // -- smoke: the CI gate's contract. ---------------------------------
    let smoke = field(&doc, "smoke");
    assert!(as_float(field(smoke, "jsonl_ratio")) >= JSONL_RATIO_FLOOR);
    assert!((as_float(field(smoke, "root_resolution_pct")) - 100.0).abs() < 1e-9);
    assert!(as_float(field(smoke, "max_replay_millis")) <= REPLAY_LATENCY_BUDGET_MILLIS);
    assert!(as_float(field(smoke, "replay_to_seq_millis")) <= REPLAY_LATENCY_BUDGET_MILLIS);
    assert!(
        (as_float(field(smoke, "replay_budget_millis")) - REPLAY_LATENCY_BUDGET_MILLIS).abs()
            < 1e-9
    );
    assert!(matches!(field(smoke, "within_budget"), Value::Bool(true)));

    // The section must survive JSON rendering (CI uploads the report).
    let rendered = serde::json::to_string(&doc);
    assert!(rendered.contains("\"within_budget\":true"), "{rendered}");
    assert!(rendered.contains("\"jsonl_ratio\""));
}
