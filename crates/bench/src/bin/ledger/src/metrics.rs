//! Every metric the ledger emits, with its unit, direction and bound,
//! and the two output forms: `workload metric value unit` lines and
//! the final JSON line. `BENCHMARK.json` declares the same table; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

use Better::{Higher, Lower};

/// A metric's name, unit, direction and, for end-to-end metrics, bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Largest tolerated worsening of the median, as a share of the
    /// parent's median; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off. Each bound rests on
/// the spreads measured at the commit that defined the benchmark (see
/// "Baseline" in `README.md`).
pub const END_TO_END: &[Def] = &[
    Def {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: Some(0.25),
    },
    Def {
        name: "throughput_per_s",
        unit: "1/s",
        better: Higher,
        bound: Some(0.2),
    },
    Def {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: Some(0.1),
    },
];

/// Outcome metrics of the system under test. They repeat exactly for
/// a given seed, so they are reported with the per-layer metrics
/// rather than bounded as end-to-end timings.
pub const OUTCOMES: &[Def] = &[
    layer("failed_share", "ratio", Lower),
    layer("exposure_pct", "%", Lower),
    layer("remediate_p50_ticks", "ticks", Lower),
    layer("remediate_p99_ticks", "ticks", Lower),
    layer("journal_bytes_per_event", "B", Lower),
    layer("latency_p50_rounds", "rounds", Lower),
    layer("latency_p999_rounds", "rounds", Lower),
];

/// Per-layer metrics from the traced pass. A layer a workload does not
/// exercise reports 0 (the SOC on `service_*`, the server on `fleet_*`).
pub const LAYERS: &[Def] = &[
    layer("server.serve_busy_share", "ratio", Higher),
    layer("server.service_p50_us", "us", Lower),
    layer("server.service_p99_us", "us", Lower),
    layer("server.rounds", "count", Lower),
    layer("server.max_queue_depth", "count", Lower),
    layer("server.loadgen_share", "ratio", Lower),
    layer("tenant.submit.calls", "count", Higher),
    layer("tenant.submit.self_s", "s", Lower),
    layer("tenant.submit.p99_us", "us", Lower),
    layer("tenant.push.calls", "count", Higher),
    layer("tenant.push.self_s", "s", Lower),
    layer("tenant.push.p99_us", "us", Lower),
    layer("tenant.query.calls", "count", Higher),
    layer("tenant.query.self_s", "s", Lower),
    layer("tenant.query.p99_us", "us", Lower),
    layer("tenant.ops.calls", "count", Higher),
    layer("tenant.ops.self_s", "s", Lower),
    layer("tenant.ops.p99_us", "us", Lower),
    layer("tenant.coverage", "ratio", Higher),
    layer("pipeline.gate.requirements.calls", "count", Higher),
    layer("pipeline.gate.requirements.self_s", "s", Lower),
    layer("pipeline.gate.requirements.p99_us", "us", Lower),
    layer("pipeline.gate.requirements.reject_ratio", "ratio", Higher),
    layer("pipeline.gate.compliance.calls", "count", Higher),
    layer("pipeline.gate.compliance.self_s", "s", Lower),
    layer("pipeline.gate.compliance.p99_us", "us", Lower),
    layer("pipeline.gate.compliance.reject_ratio", "ratio", Higher),
    layer("pipeline.gate.tests.calls", "count", Higher),
    layer("pipeline.gate.tests.self_s", "s", Lower),
    layer("pipeline.gate.tests.p99_us", "us", Lower),
    layer("pipeline.gate.tests.reject_ratio", "ratio", Higher),
    layer("pipeline.gate.analysis.calls", "count", Higher),
    layer("pipeline.gate.analysis.self_s", "s", Lower),
    layer("pipeline.gate.analysis.p99_us", "us", Lower),
    layer("pipeline.gate.analysis.reject_ratio", "ratio", Higher),
    layer("pipeline.artifact_delta.self_s", "s", Lower),
    layer("pipeline.gate.coverage", "ratio", Higher),
    layer("soc.run.self_s", "s", Lower),
    layer("soc.events_published", "count", Higher),
    layer("soc.events_deferred", "count", Lower),
    layer("soc.events_processed", "count", Higher),
    layer("soc.batches", "count", Lower),
    layer("soc.steals", "count", Lower),
    layer("soc.checks_run", "count", Lower),
    layer("soc.remediations", "count", Higher),
    layer("soc.retries", "count", Lower),
    layer("soc.dead_letters", "count", Lower),
    layer("soc.max_queue_depth", "count", Lower),
    layer("soc.batch_busy_share", "ratio", Higher),
    layer("soc.batch_p99_us", "us", Lower),
    layer("soc.incidents_per_kcheck", "1/kcheck", Higher),
    layer("core.planner.harden_us_per_host", "us", Lower),
    layer("trace.sink.records", "count", Higher),
    layer("trace.sink.busy_s", "s", Lower),
    layer("trace.sink.share", "ratio", Lower),
    layer("trace.sink.p99_ns", "ns", Lower),
    layer("trace.colfmt.decode_events_per_s", "1/s", Higher),
    layer("trace.colfmt.warn_scan_s", "s", Lower),
    layer("trace.colfmt.compact_s", "s", Lower),
    layer("trace.colfmt.compact_ratio", "ratio", Higher),
    layer("forensic_query_s", "s", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// Every metric reported with `--trace 1`: outcomes then layers.
pub fn per_layer() -> impl Iterator<Item = &'static Def> {
    OUTCOMES.iter().chain(LAYERS)
}

/// Looks a metric up by name across every table.
#[must_use]
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|d| d.name == name)
}

/// Renders one `workload metric value unit` line; `extra` (quartiles
/// and sample count) follows the unit.
#[must_use]
pub fn line(workload: &str, d: &Def, value: f64, extra: &str) -> String {
    let mut s = format!("{workload} {} {value} {}", d.name, d.unit);
    if !extra.is_empty() {
        s.push(' ');
        s.push_str(extra);
    }
    s
}

/// The final JSON result line over `defs`. A metric missing from
/// `values` belongs to a layer this workload does not exercise and
/// reports 0.
#[must_use]
pub fn json_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: impl Iterator<Item = &'a Def>,
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Shortest round-trip rendering, always a valid JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark definition the table must match.
    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// `true` for names made of `[A-Za-z0-9_.-]` only, starting with a
    /// letter or digit.
    fn valid_name(name: &str) -> bool {
        name.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The entry `BENCHMARK.json` holds for `d`, as written there.
    fn entry(d: &Def) -> String {
        let better = match d.better {
            Higher => "higher",
            Lower => "lower",
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            d.name, d.unit
        )
    }

    #[test]
    fn every_emitted_metric_is_declared_in_benchmark_json_with_its_unit() {
        let (end_to_end, per_layer_section) = BENCHMARK_JSON
            .split_once("\"per_layer\"")
            .expect("BENCHMARK.json has a per_layer section");
        for d in END_TO_END {
            assert!(end_to_end.contains(&entry(d)), "{} missing", entry(d));
        }
        for d in per_layer() {
            assert!(
                per_layer_section.contains(&entry(d)),
                "{} missing",
                entry(d)
            );
        }
        let declared = BENCHMARK_JSON.matches("\"unit\": ").count();
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert_eq!(
            declared,
            names.len(),
            "BENCHMARK.json declares other metrics"
        );
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "metric names are unique");
    }

    #[test]
    fn the_json_line_carries_every_metric_with_its_unit() {
        let values = Values::from([("setup_s", 0.25)]);
        let line = json_line(true, 10, 0, END_TO_END.iter(), &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
        assert!(line.ends_with("}}"));
    }
}
