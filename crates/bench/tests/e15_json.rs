//! Validates the JSON shape of the E15 section that
//! `exp_report --json` embeds: every consumer-visible key, including
//! `e15_server.smoke.within_budget` (the AND of the section's budget
//! rows), must be present with the right type.

use serde::json::Value;
use vdo_bench::e15::{section, E15Scale, SMOKE_BUDGET_TICKS};

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
fn e15_section_has_the_documented_shape() {
    let scale = E15Scale::tiny();
    let (doc, _) = section(&scale);

    // -- main: the headline run. ----------------------------------------
    let main = field(&doc, "main");
    assert_eq!(as_uint(field(main, "tenants")), 8);
    assert_eq!(as_uint(field(main, "total_requests")), scale.main_total);
    for q in ["p50_ticks", "p99_ticks", "p999_ticks"] {
        assert!(as_float(field(main, q)) >= 0.0, "{q} must be a quantile");
    }
    let metrics = field(main, "metrics");
    let admitted = as_uint(field(metrics, "admitted"));
    let rejected = as_uint(field(metrics, "rejected"));
    assert_eq!(admitted + rejected, scale.main_total);
    assert_eq!(as_uint(field(metrics, "completed")), admitted);
    let by_kind = field(metrics, "by_kind");
    let kind_total: u64 = [
        "submit_requirement",
        "push_commit",
        "query_incident",
        "run_ops",
    ]
    .iter()
    .map(|k| as_uint(field(by_kind, k)))
    .sum();
    assert_eq!(kind_total, admitted, "kind counters partition admissions");

    // -- sweeps: one row per configuration. -----------------------------
    let tenant_rows = as_array(field(&doc, "tenant_sweep"));
    assert_eq!(tenant_rows.len(), 4);
    for (row, expect) in tenant_rows.iter().zip([2u64, 4, 8, 16]) {
        assert_eq!(as_uint(field(row, "tenants")), expect);
        assert!(as_float(field(row, "throughput_rps")) > 0.0);
    }
    let depth_rows = as_array(field(&doc, "queue_depth_sweep"));
    assert_eq!(depth_rows.len(), 3);
    for (row, expect) in depth_rows.iter().zip([64u64, 256, 1_024]) {
        assert_eq!(as_uint(field(row, "queue_capacity")), expect);
        assert!(
            as_uint(field(row, "rejected")) > 0,
            "the overload sweep must show shed load"
        );
    }

    // -- determinism: every worker count identical to the baseline. -----
    let det = as_array(field(&doc, "determinism"));
    assert_eq!(det.len(), 3);
    for (row, workers) in det.iter().zip([1u64, 2, 4]) {
        assert_eq!(as_uint(field(row, "workers")), workers);
        let identical = match field(row, "identical") {
            Value::String(s) => s.clone(),
            other => panic!("expected string, got {other:?}"),
        };
        assert_ne!(identical, "NO");
    }

    // -- worker scaling: commit-heavy mix at 1 and 2 workers. -----------
    let scaling = field(&doc, "worker_scaling");
    assert!(matches!(field(scaling, "mix"), Value::String(m) if m == "20/70/9/1"));
    assert_eq!(
        as_uint(field(scaling, "total_requests")),
        scale.scaling_total
    );
    assert!(as_uint(field(scaling, "rounds")) > 0);
    let rows = as_array(field(scaling, "rows"));
    assert_eq!(rows.len(), 2);
    for (row, workers) in rows.iter().zip([1u64, 2]) {
        assert_eq!(as_uint(field(row, "workers")), workers);
        assert!(as_float(field(row, "throughput_rps")) > 0.0);
        assert!(as_float(field(row, "wall_secs")) > 0.0);
    }
    assert!(as_float(field(scaling, "throughput_ratio")) > 0.0);

    // -- smoke: the CI latency gate's contract. -------------------------
    let smoke = field(&doc, "smoke");
    assert_eq!(as_uint(field(smoke, "budget_ticks")), SMOKE_BUDGET_TICKS);
    assert!(as_float(field(smoke, "p99_ticks")) >= 0.0);
    assert!(matches!(field(smoke, "within_budget"), Value::Bool(true)));

    // The section must survive JSON rendering (CI uploads the report).
    let rendered = serde::json::to_string(&doc);
    assert!(rendered.contains("\"within_budget\":true"), "{rendered}");
    assert!(rendered.contains("\"budget_ticks\""));
}
