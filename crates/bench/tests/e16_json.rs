//! Validates the JSON shape of the E16 section that
//! `exp_report --json` embeds: every consumer-visible key, including
//! `e16_fleet_scale.smoke.within_budget` (the AND of the section's budget
//! rows), must be present with the right type.

use serde::json::Value;
use vdo_bench::e16::{
    section, E16Scale, SMOKE_BYTES_PER_HOST_BUDGET, SMOKE_MEMORY_RATIO_FLOOR,
    SMOKE_TICK_MILLIS_BUDGET,
};

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
fn e16_section_has_the_documented_shape() {
    let scale = E16Scale::tiny();
    let (doc, _) = section(&scale);

    // -- memory curve: one row per fleet size, ratios computed. ---------
    let curve = as_array(field(&doc, "memory_curve"));
    assert_eq!(curve.len(), scale.curve_sizes.len());
    for (row, &size) in curve.iter().zip(&scale.curve_sizes) {
        assert_eq!(as_uint(field(row, "hosts")), size as u64);
        let bph = as_float(field(row, "bytes_per_host"));
        let legacy = as_float(field(row, "legacy_bytes_per_host"));
        let ratio = as_float(field(row, "ratio"));
        assert!(bph > 0.0, "bytes/host must be measured");
        assert!(legacy > bph, "owned structs must cost more per host");
        assert!((ratio - legacy / bph).abs() < 1e-6, "ratio = legacy / bph");
        assert!(as_float(field(row, "generate_secs")) >= 0.0);
    }

    // -- closed loop: the headline run's knobs and measurements. --------
    let cl = field(&doc, "closed_loop");
    assert_eq!(as_uint(field(cl, "hosts")), scale.main_hosts as u64);
    assert_eq!(as_uint(field(cl, "ticks")), scale.ticks as u64);
    assert!(as_float(field(cl, "initial_sweep_secs")) >= 0.0);
    assert!(as_float(field(cl, "full_rescan_secs")) >= 0.0);
    assert!(as_float(field(cl, "mean_tick_millis")) >= 0.0);
    assert!(
        as_float(field(cl, "max_tick_millis")) >= as_float(field(cl, "mean_tick_millis")),
        "max tick bounds the mean"
    );
    assert!(
        as_uint(field(cl, "enforcements")) > 0,
        "drift must trigger enforcement"
    );
    assert!(
        as_uint(field(cl, "touched_hosts")) > 0,
        "drift ticks must touch hosts"
    );
    assert!(
        matches!(field(cl, "touched_compliant"), Value::Bool(true)),
        "every drifted-and-enforced host must end compliant"
    );

    // -- determinism: worker counts and the byte-identity verdict. ------
    let det = field(&doc, "determinism");
    let workers: Vec<u64> = as_array(field(det, "workers"))
        .iter()
        .map(as_uint)
        .collect();
    assert_eq!(workers, [1, 2, 4]);
    assert!(as_uint(field(det, "verdict_bytes")) > 0);
    assert!(matches!(field(det, "identical"), Value::Bool(true)));

    // -- smoke: the CI gate's contract. ---------------------------------
    let smoke = field(&doc, "smoke");
    assert_eq!(as_uint(field(smoke, "hosts")), scale.smoke_hosts as u64);
    let bph = as_float(field(smoke, "bytes_per_host"));
    assert!(bph <= SMOKE_BYTES_PER_HOST_BUDGET);
    assert!((as_float(field(smoke, "bytes_budget")) - SMOKE_BYTES_PER_HOST_BUDGET).abs() < 1e-9);
    assert!(as_float(field(smoke, "memory_ratio")) >= SMOKE_MEMORY_RATIO_FLOOR);
    assert!((as_float(field(smoke, "ratio_floor")) - SMOKE_MEMORY_RATIO_FLOOR).abs() < 1e-9);
    assert!(as_float(field(smoke, "max_tick_millis")) <= SMOKE_TICK_MILLIS_BUDGET);
    assert!((as_float(field(smoke, "tick_budget_millis")) - SMOKE_TICK_MILLIS_BUDGET).abs() < 1e-9);
    assert!(matches!(field(smoke, "within_budget"), Value::Bool(true)));

    // The section must survive JSON rendering (CI uploads the report).
    let rendered = serde::json::to_string(&doc);
    assert!(rendered.contains("\"within_budget\":true"), "{rendered}");
    assert!(rendered.contains("\"memory_curve\""));
}
