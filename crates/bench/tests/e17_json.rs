//! Validates the JSON shape of the E17 section that
//! `exp_report --json` embeds: every consumer-visible key, including
//! `e17_incremental_analysis.smoke.within_budget` (the AND of the section's budget
//! rows), must be present with the right type.

use serde::json::Value;
use vdo_bench::e17::{section, E17Scale, SMOKE_LATENCY_FRACTION_BUDGET};

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
fn e17_section_has_the_documented_shape() {
    let scale = E17Scale::tiny();
    let (doc, _) = section(&scale);

    // -- curve: one row per catalogue size, measurements coherent. ------
    let curve = as_array(field(&doc, "curve"));
    assert_eq!(curve.len(), scale.curve_entries.len());
    for (row, &entries) in curve.iter().zip(&scale.curve_entries) {
        assert_eq!(as_uint(field(row, "entries")), entries as u64);
        assert!(
            as_uint(field(row, "artifacts")) >= entries as u64,
            "formulas/models/assertions ride on top of the entries"
        );
        let touched = as_uint(field(row, "touched_per_commit"));
        assert_eq!(touched, ((entries / 100).max(1)) as u64, "1%-touch commits");
        assert_eq!(as_uint(field(row, "commits")), scale.commits as u64);
        assert!(as_float(field(row, "full_millis")) > 0.0);
        let mean = as_float(field(row, "incr_mean_millis"));
        let max = as_float(field(row, "incr_max_millis"));
        assert!(mean > 0.0);
        assert!(max >= mean, "max tick bounds the mean");
        assert!(as_float(field(row, "speedup")) > 0.0);
        assert!(
            as_float(field(row, "mean_dirty_units")) > 0.0,
            "every commit dirties the slice it touches"
        );
        assert!(
            as_uint(field(row, "misses")) > 0,
            "revised artifacts must re-run their lints"
        );
        assert!(matches!(field(row, "reports_identical"), Value::Bool(true)));
    }

    // -- smoke: the CI gate's contract. ---------------------------------
    let smoke = field(&doc, "smoke");
    assert_eq!(as_uint(field(smoke, "entries")), scale.smoke_entries as u64);
    assert_eq!(as_uint(field(smoke, "commits")), scale.smoke_commits as u64);
    let fraction = as_float(field(smoke, "latency_fraction"));
    assert!(fraction <= SMOKE_LATENCY_FRACTION_BUDGET);
    assert!(
        (as_float(field(smoke, "fraction_budget")) - SMOKE_LATENCY_FRACTION_BUDGET).abs() < 1e-9
    );
    assert!(
        (fraction
            - as_float(field(smoke, "incr_mean_millis")) / as_float(field(smoke, "full_millis")))
        .abs()
            < 1e-6,
        "fraction = incremental mean / full"
    );
    assert!(matches!(
        field(smoke, "reports_identical"),
        Value::Bool(true)
    ));
    assert!(matches!(field(smoke, "within_budget"), Value::Bool(true)));

    // The section must survive JSON rendering (CI uploads the report).
    let rendered = serde::json::to_string(&doc);
    assert!(rendered.contains("\"within_budget\":true"), "{rendered}");
    assert!(rendered.contains("\"latency_fraction\""));
}
