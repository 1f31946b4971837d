//! Validates the JSON shape of the E19 section that
//! `exp_report --json` embeds: every consumer-visible key, including
//! `e19_telemetry_plane.smoke.within_budget` (the AND of the section's budget
//! rows), must be present with the right type.

use serde::json::Value;
use vdo_bench::e19::{section, E19Scale, ALERT_LATENCY_BUDGET_TICKS, PLANE_OVERHEAD_BUDGET_PCT};

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

fn as_bool(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        other => panic!("expected bool, got {other:?}"),
    }
}

#[test]
fn e19_section_has_the_documented_shape() {
    let scale = E19Scale::tiny();
    let (doc, _) = section(&scale);

    // -- overhead: three timed arms and the pinned budget. --------------
    let overhead = field(&doc, "overhead");
    let plane = as_float(field(overhead, "plane_best_secs"));
    let forensic = as_float(field(overhead, "forensic_best_secs"));
    let baseline = as_float(field(overhead, "baseline_best_secs"));
    assert!(plane > 0.0 && forensic > 0.0 && baseline > 0.0);
    // The gate percentage is the median *paired* per-round ratio, so
    // it need not derive from the independent best-of wall clocks —
    // only finiteness and budget consistency are structural.
    let plane_pct = as_float(field(overhead, "plane_overhead_pct"));
    assert!(plane_pct.is_finite());
    assert!(as_float(field(overhead, "forensic_overhead_pct")).is_finite());
    assert!((as_float(field(overhead, "budget_pct")) - PLANE_OVERHEAD_BUDGET_PCT).abs() < 1e-9);
    assert_eq!(as_uint(field(overhead, "rounds")), scale.rounds as u64);

    // -- sampling: the size claim is self-consistent and lossless. ------
    let sampling = field(&doc, "sampling");
    assert_eq!(as_uint(field(sampling, "keep_1_in")), scale.keep_1_in);
    let unsampled = as_uint(field(sampling, "unsampled_bytes"));
    let sampled = as_uint(field(sampling, "sampled_bytes"));
    assert!(unsampled > sampled, "sampling must shrink the journal");
    let ratio = as_float(field(sampling, "size_ratio"));
    #[allow(clippy::cast_precision_loss)]
    let expect = unsampled as f64 / sampled as f64;
    assert!((ratio - expect).abs() < 1e-9, "ratio = unsampled / sampled");
    assert!(ratio >= scale.size_ratio_floor);
    let seen = as_uint(field(sampling, "events_seen"));
    let kept = as_uint(field(sampling, "events_kept"));
    assert!(seen > kept, "some telemetry traces must be head-dropped");
    assert!(as_uint(field(sampling, "traces_promoted")) > 0);
    assert!(as_uint(field(sampling, "incidents_traced")) > 0);
    assert!((as_float(field(sampling, "root_resolution_pct")) - 100.0).abs() < 1e-9);

    // -- alerting: onset precedes the alert, which reaches the bus. -----
    let alerting = field(&doc, "alerting");
    let onset = as_uint(field(alerting, "burn_onset_tick"));
    let first = as_uint(field(alerting, "first_alert_tick"));
    assert!(first >= onset, "the alert cannot precede its burn");
    let latency = as_uint(field(alerting, "alert_latency_ticks"));
    assert_eq!(latency, first - onset);
    assert!(latency <= ALERT_LATENCY_BUDGET_TICKS);
    assert_eq!(
        as_uint(field(alerting, "latency_budget_ticks")),
        ALERT_LATENCY_BUDGET_TICKS
    );
    let fired = as_uint(field(alerting, "alerts_fired"));
    assert!(fired > 0);
    assert_eq!(as_uint(field(alerting, "alerts_on_bus")), fired);
    assert!(as_uint(field(alerting, "exemplar_buckets")) > 0);

    // -- smoke: the CI gate's contract, internally consistent. ----------
    // `overhead_ok` is wall-clock and can wobble at the tiny scale, so
    // the assertion is consistency, not the verdict itself.
    let smoke = field(&doc, "smoke");
    let overhead_ok = as_bool(field(smoke, "overhead_ok"));
    assert_eq!(overhead_ok, plane_pct <= PLANE_OVERHEAD_BUDGET_PCT);
    assert!(as_bool(field(smoke, "sampling_ok")));
    assert!(as_bool(field(smoke, "alerting_ok")));
    assert_eq!(
        as_bool(field(smoke, "within_budget")),
        overhead_ok,
        "within_budget ANDs the three gates (sampling and alerting hold here)"
    );

    // The section must survive JSON rendering (CI uploads the report).
    let rendered = serde::json::to_string(&doc);
    assert!(rendered.contains("\"within_budget\""), "{rendered}");
    assert!(rendered.contains("\"size_ratio\""));
    assert!(rendered.contains("\"alert_latency_ticks\""));
}
