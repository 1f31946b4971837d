//! Prints every experiment table from EXPERIMENTS.md in one fast pass
//! (shape results only — wall-clock measurements come from
//! `cargo bench --workspace`).
//!
//! Run with: `cargo run -p vdo-bench --bin exp_report --release`
//!
//! With `--json <path>` the same run additionally writes one JSON
//! document containing every experiment table plus the F1 closed-loop
//! observability snapshot (per-phase span timings, unified counters)
//! and the E12/E14 recorder- and journal-overhead measurements.
//!
//! With `--journal <path>` the run also replays the E14 traced fleet
//! workload and writes its event journal as JSON Lines — the artifact
//! CI uploads next to the JSON report.
//!
//! `--only <section>` runs one section (by its JSON key); repeat it to
//! run several. Every name is checked before anything runs, and an
//! unknown one exits 2 listing the known sections.
//!
//! After every selected section has run, the pinned E2, E11 and E15–E19 budgets
//! are printed as one table, and the process exits 1 naming every
//! budget that failed — that exit status is the CI budget gate.

use std::time::Instant;

use serde::json::Value;
use serde::Serialize;
use vdo_analyze::{AnalysisConfig, Analyzer as StaticAnalyzer};
use vdo_bench::budget::{self, Budget};
use vdo_bench::say;
use vdo_bench::workloads;
use vdo_core::{CheckStatus, PlannerConfig, PlannerOutcome, RemediationPlanner};
use vdo_corpus::defects::{self, DefectConfig};
use vdo_corpus::requirements::{generate, CorpusConfig};
use vdo_corpus::traces::ViolationTrace;
use vdo_gwt::generate::{AllEdges, Generator, RandomWalk};
use vdo_host::{FleetConfig, FleetStore};
use vdo_nalabs::Analyzer;
use vdo_pipeline::{run, OperationsPhase, PipelineConfig};
use vdo_soc::{DetectionMode, RemediationConfig, SocConfig, SocEngine, SocMetrics, SocTracing};
use vdo_specpat::pattern::full_matrix;
use vdo_specpat::{CtlFormula, ModelChecker, ObserverAutomaton, PatternKind, Scope, SpecPattern};
use vdo_stigs::ubuntu;
use vdo_tears::Session;
use vdo_temporal::{MonitorOutcome, MonitoringLoop};
use vdo_trace::Telemetry;

fn main() {
    let mut json_path: Option<String> = None;
    let mut journal_path: Option<String> = None;
    // Sections named by `--only` (repeatable); empty runs them all.
    let mut only: Vec<String> = Vec::new();
    let mut e16_full = false;
    let mut e17_full = false;
    let mut e18_full = false;
    let mut e19_full = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--e16-full" => e16_full = true,
            "--e17-full" => e17_full = true,
            "--e18-full" => e18_full = true,
            "--e19-full" => e19_full = true,
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path argument (or `-` for stdout)");
                    std::process::exit(2);
                }));
            }
            "--journal" => {
                journal_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--journal requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--only" => {
                only.push(args.next().unwrap_or_else(|| {
                    eprintln!("--only requires a section name argument");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument: {other} \
                     (supported: --json <path|->, --journal <path>, --only <section> (repeatable), \
                     --e16-full, --e17-full, --e18-full, --e19-full)"
                );
                std::process::exit(2);
            }
        }
    }

    // `--json -` puts the JSON document on stdout, so the human tables
    // move to stderr and stdout stays machine-parseable.
    let json_to_stdout = json_path.as_deref() == Some("-");
    vdo_bench::out::route_to_stderr(json_to_stdout);

    let all: Vec<(&'static str, Section)> = vec![
        ("e1_nalabs_quality", plain(e1_nalabs_quality)),
        ("e2_nalabs_throughput", Box::new(e2_nalabs_throughput)),
        ("e3_fleet_convergence", plain(e3_fleet_convergence)),
        ("e4_monitor_latency", plain(e4_monitor_latency)),
        ("e5_matrix_coverage", plain(e5_matrix_coverage)),
        ("e6_observer_throughput", plain(e6_observer_throughput)),
        ("e7_ctl_scaling", plain(e7_ctl_scaling)),
        ("e8_gwt_coverage", plain(e8_gwt_coverage)),
        ("e9_tears_throughput", plain(e9_tears_throughput)),
        ("e10_pipeline_comparison", plain(e10_pipeline_comparison)),
        ("e11_soc_engine", Box::new(e11_soc_engine)),
        ("e12_obs_overhead", plain(e12_obs_overhead)),
        ("e13_analyze", plain(e13_analyze)),
        ("e14_trace", plain(e14_trace)),
        ("e15_server", Box::new(e15_server)),
        (
            "e16_fleet_scale",
            Box::new(move || e16_fleet_scale(e16_full)),
        ),
        (
            "e17_incremental_analysis",
            Box::new(move || e17_incremental_analysis(e17_full)),
        ),
        (
            "e18_journal_replay",
            Box::new(move || e18_journal_replay(e18_full)),
        ),
        (
            "e19_telemetry_plane",
            Box::new(move || e19_telemetry_plane(e19_full)),
        ),
        ("f1_closed_loop", plain(f1_closed_loop)),
        ("a1_dictionary_ablation", plain(a1_dictionary_ablation)),
    ];
    for name in &only {
        if !all.iter().any(|(k, _)| k == name) {
            let known: Vec<&str> = all.iter().map(|(k, _)| *k).collect();
            eprintln!(
                "--only {name}: no such section (known: {})",
                known.join(", ")
            );
            std::process::exit(2);
        }
    }
    let mut budgets: Vec<Budget> = Vec::new();
    let sections: Vec<(&'static str, Value)> = all
        .into_iter()
        .filter(|(k, _)| only.is_empty() || only.iter().any(|o| k == o))
        .map(|(k, f)| {
            let (json, rows) = f();
            budgets.extend(rows);
            (k, json)
        })
        .collect();

    if let Some(path) = json_path {
        let doc = Value::Object(
            sections
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        let rendered = serde::json::to_string_pretty(&doc);
        if json_to_stdout {
            println!("{rendered}");
        } else {
            std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            say!("\nwrote JSON report to {path}");
        }
    }

    if let Some(path) = journal_path {
        let snapshot = traced_fleet_journal(4).snapshot();
        let dropped = snapshot.dropped();
        if dropped > 0 {
            eprintln!(
                "WARNING: the in-memory journal ring dropped {dropped} events (lossy tail) — \
                 the exported JSONL is incomplete; raise capacity_per_shard or attach a \
                 durable columnar sink (SocTracing::persistent)"
            );
        }
        let file = std::fs::File::create(&path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
        vdo_trace::export::write_jsonl(file, &snapshot)
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        say!(
            "wrote JSONL journal to {path} ({} events, {dropped} dropped)",
            snapshot.events.len()
        );
    }

    if !budgets.is_empty() {
        budget::print_table(&budgets);
    }
    if let Err(failed) = budget::verdict(&budgets) {
        eprintln!("budget check failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// One runnable section: its JSON and the budget rows it pins.
type Section = Box<dyn FnOnce() -> (Value, Vec<Budget>)>;

/// Adapts a section that pins no budgets.
fn plain(section: fn() -> Value) -> Section {
    Box::new(move || (section(), Vec::new()))
}

/// The E14 traced workload: the E12 fleet (64 hardened hosts, 200
/// ticks, 2% drift) run under the event journal. Shared by the
/// overhead table, the completeness check, and `--journal`.
fn traced_fleet_journal(workers: usize) -> vdo_trace::Journal {
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let mut fleet: Vec<vdo_host::UnixHost> = (0..64)
        .map(|_| {
            let mut h = vdo_host::UnixHost::baseline_ubuntu_1804();
            planner.run(&catalog, &mut h);
            h
        })
        .collect();
    let config = SocConfig {
        duration: 200,
        drift_rate: 0.02,
        workers,
        shards: 16,
        seed: 11,
        ..SocConfig::default()
    };
    let journal = vdo_trace::Journal::new();
    let engine = SocEngine::new(&catalog, config).expect("valid config");
    let tracing = SocTracing::new(journal.clone(), 11);
    let _ = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
    journal
}

fn e1_nalabs_quality() -> Value {
    say!("\n== E1: NALABS detection quality vs planted smell rate (n = 1000) ==");
    say!(
        "{:>8} {:>10} {:>8} {:>6}",
        "RATE",
        "PRECISION",
        "RECALL",
        "F1"
    );
    let mut rows = Vec::new();
    for rate in [0.05, 0.1, 0.2, 0.3] {
        let corpus = generate(&CorpusConfig {
            size: 1_000,
            smell_rate: rate,
            seed: 7,
        });
        let report = Analyzer::with_default_metrics().analyze_corpus(&corpus.documents);
        let pr = report.score_against(&|id| corpus.is_smelly(id));
        say!(
            "{rate:>8.2} {:>10.3} {:>8.3} {:>6.3}",
            pr.precision(),
            pr.recall(),
            pr.f1()
        );
        rows.push(serde::json::object([
            ("rate", Value::Float(rate)),
            ("precision", Value::Float(pr.precision())),
            ("recall", Value::Float(pr.recall())),
            ("f1", Value::Float(pr.f1())),
        ]));
    }
    Value::Array(rows)
}

/// E2's ceiling on the per-document time with every dictionary grown
/// ten times over the stock time: the matcher's cost must follow the
/// text, not the dictionaries.
const E2_GROWN_RATIO_BUDGET: f64 = 1.5;

fn e2_nalabs_throughput() -> (Value, Vec<Budget>) {
    say!("\n== E2: NALABS throughput vs corpus size ==");
    say!("{:>8} {:>12} {:>14}", "SIZE", "ELAPSED", "DOCS/SEC");
    let analyzer = Analyzer::with_default_metrics();
    let mut rows = Vec::new();
    for size in [100usize, 1_000, 10_000] {
        let corpus = workloads::corpus(size);
        let t0 = Instant::now();
        let report = analyzer.analyze_corpus(&corpus.documents);
        let dt = t0.elapsed();
        assert_eq!(report.len(), size);
        let docs_per_sec = size as f64 / dt.as_secs_f64();
        say!("{size:>8} {:>12.2?} {docs_per_sec:>14.0}", dt);
        rows.push(serde::json::object([
            ("size", Value::UInt(size as u64)),
            ("dictionary_scale", Value::UInt(1)),
            ("elapsed_secs", Value::Float(dt.as_secs_f64())),
            ("docs_per_sec", Value::Float(docs_per_sec)),
        ]));
    }

    // The same 1,000 documents with every dictionary ten times larger,
    // each side the best of several alternating rounds.
    let scale = 10;
    let grown = workloads::nalabs_analyzer(workloads::grown_dictionaries(scale));
    let corpus = workloads::corpus(1_000);
    assert_eq!(
        grown.analyze_corpus(&corpus.documents),
        analyzer.analyze_corpus(&corpus.documents),
        "synthetic entries must never occur in the corpus"
    );
    let rounds = 7;
    let time = |analyzer: &Analyzer| {
        let t0 = Instant::now();
        let _ = analyzer.analyze_corpus(&corpus.documents);
        t0.elapsed().as_secs_f64()
    };
    let (mut stock_s, mut grown_s) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        stock_s = stock_s.min(time(&analyzer));
        grown_s = grown_s.min(time(&grown));
    }
    let ratio = grown_s / stock_s;
    let mut compile_s = f64::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let _ = Analyzer::new(
            vdo_nalabs::metrics::default_suite(),
            vdo_nalabs::SmellThresholds::default(),
        );
        compile_s = compile_s.min(t0.elapsed().as_secs_f64());
    }
    let docs_per_sec = corpus.documents.len() as f64 / grown_s;
    say!(
        "{:>8} {:>12.2?} {docs_per_sec:>14.0}  (dictionaries x{scale}: {ratio:.2}x the stock time \
         per document, best of {rounds})",
        corpus.documents.len(),
        std::time::Duration::from_secs_f64(grown_s)
    );
    say!("   default suite compiled once per process in {compile_s:.6} s (best of {rounds})");
    rows.push(serde::json::object([
        ("size", Value::UInt(corpus.documents.len() as u64)),
        ("dictionary_scale", Value::UInt(scale as u64)),
        ("elapsed_secs", Value::Float(grown_s)),
        ("docs_per_sec", Value::Float(docs_per_sec)),
        ("stock_elapsed_secs", Value::Float(stock_s)),
        ("per_doc_ratio", Value::Float(ratio)),
        ("rounds", Value::UInt(rounds)),
        ("default_suite_compile_secs", Value::Float(compile_s)),
    ]));
    let budgets = vec![Budget::at_most(
        "e2.grown_10x.per_doc_ratio",
        ratio,
        E2_GROWN_RATIO_BUDGET,
    )];
    (Value::Array(rows), budgets)
}

fn e3_fleet_convergence() -> Value {
    say!("\n== E3: STIG check/enforce over fleets (drift sweep, 20 hosts) ==");
    say!(
        "{:>8} {:>9} {:>13} {:>10} {:>12}",
        "DRIFT",
        "DRIFTED",
        "REMEDIATIONS",
        "COMPLIANT",
        "ELAPSED"
    );
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::new(PlannerConfig::default());
    let mut rows = Vec::new();
    for drift in [0.0, 0.25, 0.5, 1.0] {
        let fleet = FleetStore::generate(
            &FleetConfig::builder()
                .size(20)
                .drift_probability(drift)
                .drift_events_per_host(4)
                .seed(3)
                .build()
                .expect("valid fleet config"),
        );
        let mut hosts: Vec<_> = (0..fleet.len())
            .map(|i| fleet.materialize_unix(i))
            .collect();
        let t0 = Instant::now();
        let mut remediations = 0;
        let mut compliant = 0;
        for host in &mut hosts {
            let run = planner.run(&catalog, host);
            remediations += run.report.summary().remediated;
            if run.outcome == PlannerOutcome::Compliant {
                compliant += 1;
            }
        }
        let dt = t0.elapsed();
        say!(
            "{drift:>8.2} {:>9} {remediations:>13} {compliant:>9}/20 {:>12.2?}",
            fleet.drifted_count(),
            dt
        );
        rows.push(serde::json::object([
            ("drift", Value::Float(drift)),
            ("drifted_hosts", Value::UInt(fleet.drifted_count() as u64)),
            ("remediations", Value::UInt(remediations as u64)),
            ("compliant_hosts", Value::UInt(compliant)),
            ("elapsed_secs", Value::Float(dt.as_secs_f64())),
        ]));
    }
    Value::Array(rows)
}

fn e4_monitor_latency() -> Value {
    say!("\n== E4/A2: monitor detection latency vs polling period (10k-tick traces) ==");
    say!(
        "{:>8} {:>13} {:>12} {:>9}",
        "PERIOD",
        "MEAN LATENCY",
        "MAX LATENCY",
        "POLLS"
    );
    let pattern = SpecPattern::new(Scope::Globally, PatternKind::universality("up"));
    let observer = ObserverAutomaton::for_pattern(&pattern).expect("observer");
    let up = |up: &bool| CheckStatus::from(*up);
    let mut rows = Vec::new();
    for period in [1u64, 5, 10, 50, 100, 500] {
        let mut latencies = Vec::new();
        let mut polls = 0;
        for k in 0..32u64 {
            let w = ViolationTrace::at(10_000, 313 * (k + 1) % 9_000 + 500);
            let monitor = observer.monitor(&[("up", &up)]).expect("bound");
            let report = MonitoringLoop::new(period)
                .expect("nonzero period")
                .run(monitor, &w.trace);
            polls += report.polls;
            if let MonitorOutcome::ViolationDetected(_) = report.outcome {
                latencies.push(report.detection_latency(w.violation_tick).unwrap() as f64);
            }
        }
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let max = latencies.iter().cloned().fold(0.0f64, f64::max);
        say!("{period:>8} {mean:>13.1} {max:>12.0} {:>9}", polls / 32);
        rows.push(serde::json::object([
            ("period", Value::UInt(period)),
            ("mean_latency", Value::Float(mean)),
            ("max_latency", Value::Float(max)),
            ("mean_polls", Value::UInt(polls / 32)),
        ]));
    }
    Value::Array(rows)
}

fn e5_matrix_coverage() -> Value {
    say!("\n== E5: scope x pattern matrix coverage ==");
    let matrix = full_matrix();
    let t0 = Instant::now();
    let total_nodes: usize = matrix.iter().map(|p| p.to_ltl().size()).sum();
    let dt = t0.elapsed();
    let ctl = matrix.iter().filter(|p| p.to_ctl().is_ok()).count();
    let uppaal = matrix.iter().filter(|p| p.to_uppaal().is_ok()).count();
    let observers = matrix
        .iter()
        .filter(|p| ObserverAutomaton::for_pattern(p).is_some())
        .count();
    say!("  combinations:      {}", matrix.len());
    say!(
        "  LTL mappings:      {} ({} AST nodes in {dt:.2?})",
        matrix.len(),
        total_nodes
    );
    say!("  CTL mappings:      {ctl}");
    say!("  UPPAAL queries:    {uppaal}");
    say!("  observer automata: {observers}");
    serde::json::object([
        ("combinations", Value::UInt(matrix.len() as u64)),
        ("ltl_mappings", Value::UInt(matrix.len() as u64)),
        ("ltl_ast_nodes", Value::UInt(total_nodes as u64)),
        ("ctl_mappings", Value::UInt(ctl as u64)),
        ("uppaal_queries", Value::UInt(uppaal as u64)),
        ("observer_automata", Value::UInt(observers as u64)),
    ])
}

fn e6_observer_throughput() -> Value {
    say!("\n== E6: observer trace checking vs trace length ==");
    say!("{:>10} {:>12} {:>14}", "TICKS", "ELAPSED", "TICKS/SEC");
    let pattern = SpecPattern::new(Scope::Globally, PatternKind::bounded_response("p", "s", 10));
    let observer = ObserverAutomaton::for_pattern(&pattern).expect("observer");
    let mut rows = Vec::new();
    for len in [1_000usize, 10_000, 100_000, 1_000_000] {
        let trace = workloads::response_observations(len);
        let t0 = Instant::now();
        let outcome = observer.run(&trace);
        let dt = t0.elapsed();
        assert_ne!(
            outcome.prefix,
            CheckStatus::Fail,
            "workload satisfies the property"
        );
        let ticks_per_sec = len as f64 / dt.as_secs_f64();
        say!("{len:>10} {:>12.2?} {ticks_per_sec:>14.0}", dt);
        rows.push(serde::json::object([
            ("ticks", Value::UInt(len as u64)),
            ("elapsed_secs", Value::Float(dt.as_secs_f64())),
            ("ticks_per_sec", Value::Float(ticks_per_sec)),
        ]));
    }
    Value::Array(rows)
}

fn e7_ctl_scaling() -> Value {
    say!("\n== E7: CTL model checking vs Kripke size ==");
    say!(
        "{:>8} {:>12} {:>12} {:>12}",
        "STATES",
        "AG p",
        "EF q",
        "AG(q->AF p)"
    );
    let mut rows = Vec::new();
    for n in [100usize, 1_000, 10_000] {
        let model = workloads::ring_kripke(n);
        let mc = ModelChecker::new(&model);
        let mut cells = Vec::new();
        let mut secs = Vec::new();
        for f in [
            CtlFormula::ag(CtlFormula::atom("p")),
            CtlFormula::ef(CtlFormula::atom("q")),
            CtlFormula::ag(CtlFormula::implies(
                CtlFormula::atom("q"),
                CtlFormula::af(CtlFormula::atom("p")),
            )),
        ] {
            let t0 = Instant::now();
            let _ = mc.holds(&f);
            let dt = t0.elapsed();
            cells.push(format!("{dt:.2?}"));
            secs.push(dt.as_secs_f64());
        }
        say!("{n:>8} {:>12} {:>12} {:>12}", cells[0], cells[1], cells[2]);
        rows.push(serde::json::object([
            ("states", Value::UInt(n as u64)),
            ("ag_p_secs", Value::Float(secs[0])),
            ("ef_q_secs", Value::Float(secs[1])),
            ("ag_q_implies_af_p_secs", Value::Float(secs[2])),
        ]));
    }
    Value::Array(rows)
}

fn e8_gwt_coverage() -> Value {
    say!("\n== E8: test generation — coverage at equal step budgets ==");
    say!(
        "{:>8} {:>7} {:>8} {:>11} {:>13}",
        "MODEL n",
        "EDGES",
        "BUDGET",
        "ALL-EDGES",
        "RANDOM WALK"
    );
    let mut rows = Vec::new();
    for n in [10usize, 50, 200, 500] {
        let model = workloads::branched_model(n);
        let all = AllEdges.generate(&model, 0);
        let budget: usize = all.iter().map(|t| t.len()).sum();
        let rw = RandomWalk {
            max_steps: budget,
            tests: 1,
            coverage_target: 1.0,
        };
        let all_cov = model.edge_coverage(&all);
        let random_cov = model.edge_coverage(&rw.generate(&model, 5));
        say!(
            "{n:>8} {:>7} {budget:>8} {:>10.0}% {:>12.0}%",
            model.edge_count(),
            100.0 * all_cov,
            100.0 * random_cov
        );
        rows.push(serde::json::object([
            ("model_vertices", Value::UInt(n as u64)),
            ("edges", Value::UInt(model.edge_count() as u64)),
            ("step_budget", Value::UInt(budget as u64)),
            ("all_edges_coverage", Value::Float(all_cov)),
            ("random_walk_coverage", Value::Float(random_cov)),
        ]));
    }
    Value::Array(rows)
}

fn e9_tears_throughput() -> Value {
    say!("\n== E9: TEARS G/A evaluation throughput ==");
    say!(
        "{:>10} {:>12} {:>12} {:>14}",
        "TICKS",
        "ASSERTIONS",
        "ELAPSED",
        "TICKS/SEC"
    );
    let mut rows = Vec::new();
    for (len, n) in [
        (10_000u64, 1usize),
        (10_000, 10),
        (100_000, 10),
        (100_000, 100),
    ] {
        let trace = workloads::tears_trace(len);
        let mut text = String::new();
        for i in 0..n {
            let threshold = 0.5 + (i % 40) as f64 * 0.01;
            text.push_str(&format!(
                "ga \"ga{i}\": when load > {threshold} then throttled == 1 within 5\n"
            ));
        }
        let session = Session::parse(&text).expect("valid G/As");
        let t0 = Instant::now();
        let _ = session.evaluate(&trace);
        let dt = t0.elapsed();
        let ticks_per_sec = len as f64 / dt.as_secs_f64();
        say!("{len:>10} {n:>12} {:>12.2?} {ticks_per_sec:>14.0}", dt);
        rows.push(serde::json::object([
            ("ticks", Value::UInt(len)),
            ("assertions", Value::UInt(n as u64)),
            ("elapsed_secs", Value::Float(dt.as_secs_f64())),
            ("ticks_per_sec", Value::Float(ticks_per_sec)),
        ]));
    }
    Value::Array(rows)
}

/// E10: the closed loop with and without the gates and the monitor.
/// Operations run the SOC in its periodic mode: a monitor every 10
/// ticks plus an audit every 500 (the default), or the audit alone.
fn e10_pipeline_comparison() -> Value {
    const AUDIT_ONLY: DetectionMode = DetectionMode::Periodic {
        monitor: None,
        audit: 500,
    };
    say!("\n== E10: automated vs manual pipeline (mean of seeds 1-5) ==");
    say!(
        "{:<28} {:>9} {:>9} {:>10} {:>13} {:>10}",
        "CONFIGURATION",
        "REJECTED",
        "SHIPPED",
        "INCIDENTS",
        "MEAN LATENCY",
        "EXPOSURE"
    );
    let base = PipelineConfig {
        commits: 60,
        ops_duration: 2_000,
        ..PipelineConfig::default()
    };
    type MakeConfig = Box<dyn Fn(u64) -> PipelineConfig>;
    let configs: Vec<(&str, MakeConfig)> = vec![
        (
            "automated (gates+monitor)",
            Box::new(move |seed| PipelineConfig { seed, ..base }),
        ),
        (
            "gates only",
            Box::new(move |seed| PipelineConfig {
                seed,
                detection: AUDIT_ONLY,
                ..base
            }),
        ),
        (
            "monitor only",
            Box::new(move |seed| PipelineConfig {
                seed,
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                analysis_gate: false,
                ..base
            }),
        ),
        (
            "manual baseline",
            Box::new(move |seed| PipelineConfig {
                seed,
                requirements_gate: false,
                compliance_gate: false,
                test_gate: false,
                analysis_gate: false,
                detection: AUDIT_ONLY,
                ..base
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (name, make) in &configs {
        let (mut rejected, mut shipped, mut incidents, mut latency, mut exposure) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let seeds = [1u64, 2, 3, 4, 5];
        for &seed in &seeds {
            let r = run(&make(seed), &Telemetry::off());
            rejected += r.rejected_total() as f64;
            shipped += r.vulnerabilities_deployed as f64;
            incidents += r.ops.incidents.len() as f64;
            latency += r.ops.mean_detection_latency();
            exposure += r.ops.exposure();
        }
        let n = seeds.len() as f64;
        say!(
            "{name:<28} {:>9.1} {:>9.1} {:>10.1} {:>13.1} {:>9.2}%",
            rejected / n,
            shipped / n,
            incidents / n,
            latency / n,
            100.0 * exposure / n
        );
        rows.push(serde::json::object([
            ("configuration", Value::String((*name).to_string())),
            ("mean_rejected", Value::Float(rejected / n)),
            ("mean_shipped", Value::Float(shipped / n)),
            ("mean_incidents", Value::Float(incidents / n)),
            ("mean_detection_latency", Value::Float(latency / n)),
            ("mean_exposure", Value::Float(exposure / n)),
        ]));
    }
    Value::Array(rows)
}

/// E11: the SOC's two detection modes on one engine — continuous
/// (event-driven) against a periodic monitor of period 10 — over the
/// same fleet and seed, so both rows face the same drift history by
/// construction; the section asserts their `drift_events` are equal.
/// The SOC's `checks` count every rule's verdict per trigger;
/// `rules_evaluated` counts the evaluations that ran, the rest coming
/// from its per-host verdict cache. The budget row pins that saving at
/// 1,000 hosts: a SOC that fell back to full re-checks would evaluate
/// every verdict.
fn e11_soc_engine() -> (Value, Vec<Budget>) {
    say!("\n== E11: event-driven SOC vs polling monitor (drift 2%/tick) ==");
    say!(
        "{:>6} {:>14} {:>7} {:>10} {:>13} {:>10} {:>10} {:>10}",
        "HOSTS",
        "ENGINE",
        "DRIFT",
        "INCIDENTS",
        "MEAN LATENCY",
        "EXPOSURE",
        "CHECKS",
        "EVALUATED"
    );
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let fleet_of = |n: usize| -> Vec<vdo_host::UnixHost> {
        (0..n)
            .map(|_| {
                let mut h = vdo_host::UnixHost::baseline_ubuntu_1804();
                planner.run(&catalog, &mut h);
                h
            })
            .collect()
    };
    let modes = [
        ("event-driven", DetectionMode::Continuous),
        (
            "polling-10",
            DetectionMode::Periodic {
                monitor: Some(10),
                audit: 0,
            },
        ),
    ];
    let mut scaling_rows = Vec::new();
    let mut budgets = Vec::new();
    for hosts in [1usize, 10, 100, 1_000] {
        let duration = if hosts <= 100 { 500 } else { 100 };
        let mut drift_events = Vec::new();
        for (name, detection) in modes {
            let engine = SocEngine::new(
                &catalog,
                SocConfig {
                    duration,
                    drift_rate: 0.02,
                    workers: 4,
                    shards: 16,
                    seed: 11,
                    detection,
                    ..SocConfig::default()
                },
            )
            .expect("valid config");
            let report = engine.run(&mut fleet_of(hosts));
            let m = &report.metrics;
            say!(
                "{:>6} {:>14} {:>7} {:>10} {:>13.1} {:>9.2}% {:>10} {:>10}",
                hosts,
                name,
                report.drift_events,
                report.incidents.len(),
                report.mean_detection_latency(),
                100.0 * report.exposure(hosts),
                m.checks_run,
                m.rules_evaluated
            );
            if hosts == 1_000 && detection == DetectionMode::Continuous {
                budgets.push(Budget::at_most(
                    "e11.scaling.1000.rules_evaluated_per_check",
                    m.rules_evaluated as f64 / m.checks_run.max(1) as f64,
                    0.5,
                ));
            }
            drift_events.push(report.drift_events);
            scaling_rows.push(serde::json::object([
                ("hosts", Value::UInt(hosts as u64)),
                ("engine", Value::String(name.into())),
                ("drift_events", Value::UInt(report.drift_events)),
                ("incidents", Value::UInt(report.incidents.len() as u64)),
                (
                    "mean_detection_latency",
                    Value::Float(report.mean_detection_latency()),
                ),
                ("exposure", Value::Float(report.exposure(hosts))),
                ("checks", Value::UInt(m.checks_run)),
                ("rules_evaluated", Value::UInt(m.rules_evaluated)),
            ]));
        }
        // A correctness check, not a budget: the modes differ only in
        // their detection policy, never in the drift they face.
        assert!(
            drift_events.windows(2).all(|w| w[0] == w[1]),
            "{hosts} hosts: both detection modes must face the same drift history, \
             got drift_events {drift_events:?}"
        );
    }

    say!("\n   determinism + remediation faults (64 hosts, 200 ticks, 25% fault rate):");
    say!(
        "{:>8} {:>10} {:>8} {:>13} {:>10}",
        "WORKERS",
        "INCIDENTS",
        "RETRIES",
        "DEAD LETTERS",
        "IDENTICAL"
    );
    let mut reference: Option<String> = None;
    let mut determinism_rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut fleet = fleet_of(64);
        let engine = SocEngine::new(
            &catalog,
            SocConfig {
                duration: 200,
                drift_rate: 0.02,
                workers,
                shards: 16,
                seed: 11,
                tears_assertion: Some(
                    r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
                ),
                remediation: RemediationConfig {
                    fault_rate: 0.25,
                    ..RemediationConfig::default()
                },
                ..SocConfig::default()
            },
        )
        .expect("valid config");
        let report = engine.run(&mut fleet);
        let log = report.incident_log();
        let identical = match &reference {
            None => {
                reference = Some(log);
                "baseline"
            }
            Some(expected) if *expected == log => "yes",
            Some(_) => "NO",
        };
        say!(
            "{:>8} {:>10} {:>8} {:>13} {:>10}",
            workers,
            report.incidents.len(),
            report.metrics.retries,
            report.metrics.dead_letters,
            identical
        );
        determinism_rows.push(serde::json::object([
            ("workers", Value::UInt(workers as u64)),
            ("incidents", Value::UInt(report.incidents.len() as u64)),
            ("retries", Value::UInt(report.metrics.retries)),
            ("dead_letters", Value::UInt(report.metrics.dead_letters)),
            ("identical", Value::String(identical.to_string())),
        ]));
    }
    let json = serde::json::object([
        ("scaling", Value::Array(scaling_rows)),
        ("determinism", Value::Array(determinism_rows)),
    ]);
    (json, budgets)
}

/// E12: the cost of the recorder itself — the same SOC fleet workload
/// with live instruments ([`SocMetrics::new`]) vs the no-op recorder
/// ([`SocMetrics::disabled`]). Best-of-N wall clock on each side keeps
/// scheduler noise out of the comparison.
fn e12_obs_overhead() -> Value {
    say!("\n== E12: observability overhead (64-host SOC fleet, enabled vs disabled recorder) ==");
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let fleet_of = || -> Vec<vdo_host::UnixHost> {
        (0..64)
            .map(|_| {
                let mut h = vdo_host::UnixHost::baseline_ubuntu_1804();
                planner.run(&catalog, &mut h);
                h
            })
            .collect()
    };
    let config = SocConfig {
        duration: 200,
        drift_rate: 0.02,
        workers: 4,
        shards: 16,
        seed: 11,
        ..SocConfig::default()
    };
    let rounds = 5;
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (slot, enabled) in [(0usize, true), (1, false)] {
            let metrics = if enabled {
                SocMetrics::new()
            } else {
                SocMetrics::disabled()
            };
            let mut fleet = fleet_of();
            let engine = SocEngine::new(&catalog, config.clone()).expect("valid config");
            let t0 = Instant::now();
            let report = engine.run_traced(&mut fleet, &metrics, &SocTracing::disabled());
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(
                report.metrics.events_processed > 0,
                enabled,
                "disabled recorder must observe nothing, enabled must observe the run"
            );
            best[slot] = best[slot].min(dt);
        }
    }
    let overhead_pct = 100.0 * (best[0] - best[1]) / best[1];
    say!("{:>10} {:>14}", "RECORDER", "BEST WALL");
    say!("{:>10} {:>13.2}ms", "enabled", best[0] * 1e3);
    say!("{:>10} {:>13.2}ms", "disabled", best[1] * 1e3);
    say!("   recorder overhead: {overhead_pct:+.2}% (best of {rounds} rounds each)");
    serde::json::object([
        ("enabled_best_secs", Value::Float(best[0])),
        ("disabled_best_secs", Value::Float(best[1])),
        ("overhead_pct", Value::Float(overhead_pct)),
        ("rounds", Value::UInt(rounds)),
    ])
}

/// E14: the trace journal's cost and completeness on the E12 fleet
/// workload — best-of-5 wall clock for traced vs disabled-tracing vs
/// untraced runs (target <5% like E12), plus the causal-chain
/// guarantees: every incident resolves to a requirement root, and the
/// journal fingerprint is invariant under the worker count.
fn e14_trace() -> Value {
    say!("\n== E14: trace-journal overhead + completeness (64-host SOC fleet) ==");
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let fleet_of = || -> Vec<vdo_host::UnixHost> {
        (0..64)
            .map(|_| {
                let mut h = vdo_host::UnixHost::baseline_ubuntu_1804();
                planner.run(&catalog, &mut h);
                h
            })
            .collect()
    };
    let config = SocConfig {
        duration: 200,
        drift_rate: 0.02,
        workers: 4,
        shards: 16,
        seed: 11,
        ..SocConfig::default()
    };

    // -- Overhead: traced vs disabled-journal vs plain untraced run. ----
    // The engine has one traced entry point, so "disabled" and
    // "untraced" run the same path: their spread is the noise floor.
    // The E11 fleet shape (500 ticks) keeps each run long enough that
    // best-of-N converges below scheduler jitter.
    let overhead_config = SocConfig {
        duration: 500,
        ..config.clone()
    };
    let rounds = 11;
    let modes = ["traced", "disabled", "untraced"];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..rounds {
        for (slot, mode) in modes.iter().enumerate() {
            let mut fleet = fleet_of();
            let engine = SocEngine::new(&catalog, overhead_config.clone()).expect("valid config");
            let metrics = SocMetrics::new();
            // The journal outlives the run in every real deployment (it
            // is snapshotted/exported afterwards), so its construction
            // and teardown stay outside the timed region — only the
            // per-event cost paid during the run is the overhead.
            let tracing = if *mode == "traced" {
                SocTracing::new(vdo_trace::Journal::new(), 11)
            } else {
                SocTracing::disabled()
            };
            let t0 = Instant::now();
            let report = engine.run_traced(&mut fleet, &metrics, &tracing);
            let dt = t0.elapsed().as_secs_f64();
            assert!(
                !report.incidents.is_empty(),
                "workload must raise incidents"
            );
            drop(tracing);
            best[slot] = best[slot].min(dt);
        }
    }
    let overhead = |secs: f64| 100.0 * (secs - best[2]) / best[2];
    say!("{:>10} {:>14} {:>10}", "JOURNAL", "BEST WALL", "OVERHEAD");
    for (slot, mode) in modes.iter().enumerate() {
        say!(
            "{:>10} {:>13.2}ms {:>9.2}%",
            mode,
            best[slot] * 1e3,
            overhead(best[slot])
        );
    }

    // -- Completeness + fingerprint invariance across worker counts. ----
    let mut completeness_rows = Vec::new();
    let mut fingerprints = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut fleet = fleet_of();
        let journal = vdo_trace::Journal::new();
        let engine = SocEngine::new(
            &catalog,
            SocConfig {
                workers,
                ..config.clone()
            },
        )
        .expect("valid config");
        let tracing = SocTracing::new(journal.clone(), 11);
        let report = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
        let snapshot = journal.snapshot();
        let resolved = report
            .incidents
            .iter()
            .filter(|i| {
                i.trace.is_some_and(|t| {
                    snapshot
                        .root_event(t.trace_id)
                        .is_some_and(|root| root.name == "requirement.ingested")
                })
            })
            .count();
        let completeness = 100.0 * resolved as f64 / report.incidents.len().max(1) as f64;
        assert!(
            (completeness - 100.0).abs() < f64::EPSILON,
            "every incident must resolve to a requirement root"
        );
        fingerprints.push(snapshot.fingerprint());
        completeness_rows.push(serde::json::object([
            ("workers", Value::UInt(workers as u64)),
            ("incidents", Value::UInt(report.incidents.len() as u64)),
            ("resolved", Value::UInt(resolved as u64)),
            ("completeness_pct", Value::Float(completeness)),
            ("journal_events", Value::UInt(snapshot.events.len() as u64)),
            ("journal_dropped", Value::UInt(snapshot.dropped())),
        ]));
        say!(
            "   workers {workers}: {resolved}/{} incidents resolve to requirement roots \
             ({} journal events, {} dropped)",
            report.incidents.len(),
            snapshot.events.len(),
            snapshot.dropped()
        );
    }
    let invariant = fingerprints.windows(2).all(|w| w[0] == w[1]);
    assert!(invariant, "journal fingerprint must not depend on workers");
    say!(
        "   journal overhead: {:+.2}% traced / {:+.2}% disabled (best of {rounds}); \
         fingerprint worker-invariant: {invariant}",
        overhead(best[0]),
        overhead(best[1])
    );
    serde::json::object([
        ("traced_best_secs", Value::Float(best[0])),
        ("disabled_best_secs", Value::Float(best[1])),
        ("untraced_best_secs", Value::Float(best[2])),
        ("traced_overhead_pct", Value::Float(overhead(best[0]))),
        ("disabled_overhead_pct", Value::Float(overhead(best[1]))),
        ("rounds", Value::UInt(rounds)),
        ("completeness", Value::Array(completeness_rows)),
        ("fingerprint_worker_invariant", Value::Bool(invariant)),
    ])
}

/// E15: the multi-tenant service front end — one million open-loop
/// requests across eight tenants, latency/throughput/rejection tables,
/// scaling sweeps, the worker-count determinism check, and the smoke
/// configuration CI holds to its latency budget.
fn e15_server() -> (Value, Vec<Budget>) {
    vdo_bench::e15::section(&vdo_bench::e15::E15Scale::full())
}

/// E16: the columnar fleet store at scale — the bytes-per-host memory
/// curve against the owned-struct baseline, the drift → dirty-set
/// refresh → enforce closed loop, worker-count determinism on the
/// verdict logs, and the smoke configuration CI holds to its pinned
/// memory and round-latency budgets. The default runs the CI shape
/// (100k-host closed loop); `--e16-full` runs the million-host curve.
fn e16_fleet_scale(full: bool) -> (Value, Vec<Budget>) {
    let scale = if full {
        vdo_bench::e16::E16Scale::full()
    } else {
        vdo_bench::e16::E16Scale::ci()
    };
    vdo_bench::e16::section(&scale)
}

/// E17: incremental cross-artifact analysis at catalogue scale — the
/// full-batch vs incremental gate-latency curve, the bit-identity
/// check against batch reports after every commit, and the smoke
/// configuration CI holds to its latency-fraction budget (a 1%-touch
/// commit against ten thousand requirements must re-gate in at most
/// 10% of the full-run latency). The default runs the CI shape;
/// `--e17-full` runs the four-point curve to 10k entries.
fn e17_incremental_analysis(full: bool) -> (Value, Vec<Budget>) {
    let scale = if full {
        vdo_bench::e17::E17Scale::full()
    } else {
        vdo_bench::e17::E17Scale::ci()
    };
    vdo_bench::e17::section(&scale)
}

/// E18: the columnar journal + deterministic replay — write-path
/// throughput and the size advantage over JSONL, `Warn`-floor
/// compaction with incident chains kept whole, and replay-to-checkpoint
/// / replay-to-seq latency with digest-identity verified on every
/// worker count. The compacted segments land in `target/e18_compact`
/// (the CI artifact). The default runs the CI shape (64 hosts, 200
/// ticks); `--e18-full` records the 128-host, 500-tick run.
fn e18_journal_replay(full: bool) -> (Value, Vec<Budget>) {
    let scale = if full {
        vdo_bench::e18::E18Scale::full()
    } else {
        vdo_bench::e18::E18Scale::ci()
    };
    vdo_bench::e18::section(&scale)
}

/// E19: the live telemetry plane — always-on plane overhead, the
/// tail-sampled journal's size ratio at 100% root resolution, and SLO
/// alert latency on the SOC bus. The default runs the CI shape (200
/// ticks); `--e19-full` runs 300 ticks and twice the requests.
fn e19_telemetry_plane(full: bool) -> (Value, Vec<Budget>) {
    let scale = if full {
        vdo_bench::e19::E19Scale::full()
    } else {
        vdo_bench::e19::E19Scale::ci()
    };
    vdo_bench::e19::section(&scale)
}

/// E13: the static analyzer against the planted-defect corpus —
/// per-class precision/recall, a byte-identical-listing determinism
/// check across thread counts, and throughput vs catalogue size.
fn e13_analyze() -> Value {
    say!("\n== E13: static-analyzer detection on planted defects (60 clean + 3/class) ==");
    say!(
        "{:<8} {:>8} {:>6} {:>4} {:>4} {:>10} {:>7}",
        "CODE",
        "PLANTED",
        "FOUND",
        "FP",
        "FN",
        "PRECISION",
        "RECALL"
    );
    let corpus = defects::generate(&DefectConfig::default());
    let analyzer = StaticAnalyzer::new(AnalysisConfig::default());
    let report = analyzer.analyze(&corpus.artifacts);
    let score = corpus.score(&report);
    let mut detection = Vec::new();
    for (code, class) in &score.per_class {
        say!(
            "{:<8} {:>8} {:>6} {:>4} {:>4} {:>10.3} {:>7.3}",
            code.as_str(),
            class.planted,
            class.true_positives,
            class.false_positives,
            class.false_negatives,
            class.precision(),
            class.recall()
        );
        detection.push(serde::json::object([
            ("code", Value::String(code.as_str().to_string())),
            ("planted", Value::UInt(class.planted as u64)),
            ("found", Value::UInt(class.true_positives as u64)),
            ("false_positives", Value::UInt(class.false_positives as u64)),
            ("false_negatives", Value::UInt(class.false_negatives as u64)),
            ("precision", Value::Float(class.precision())),
            ("recall", Value::Float(class.recall())),
        ]));
    }
    say!(
        "{:<8} {:>8} {:>6} {:>4} {:>4} {:>10.3} {:>7.3}",
        "TOTAL",
        corpus.planted_total(),
        score.true_positives,
        score.false_positives,
        score.false_negatives,
        score.precision(),
        score.recall()
    );
    assert!(
        score.is_perfect(),
        "E13 regression: planted-defect detection is no longer perfect"
    );

    // Determinism: equal inputs must yield byte-identical listings at
    // every thread count.
    let listings: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| analyzer.analyze_all(&corpus.artifacts, t).listing())
        .collect();
    let identical = listings.iter().all(|l| *l == listings[0]);
    assert!(identical, "E13 regression: listings differ across threads");
    say!(
        "   determinism: {} diagnostics, listings byte-identical at 1/2/4 threads",
        report.diagnostics.len()
    );

    // Throughput vs catalogue size (clean corpora, so the analyzer
    // walks everything and reports nothing).
    say!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "ENTRIES",
        "ARTIFACTS",
        "1-THREAD",
        "4-THREAD",
        "ENTRIES/S"
    );
    let mut throughput = Vec::new();
    for clean_entries in [100usize, 1_000, 10_000] {
        let corpus = defects::generate(&DefectConfig {
            clean_entries,
            defects_per_class: 0,
            seed: 7,
        });
        let t0 = Instant::now();
        let r1 = analyzer.analyze_all(&corpus.artifacts, 1);
        let dt1 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let r4 = analyzer.analyze_all(&corpus.artifacts, 4);
        let dt4 = t0.elapsed().as_secs_f64();
        assert!(
            r1.is_clean() && r4.is_clean(),
            "clean corpus must stay clean"
        );
        let eps = clean_entries as f64 / dt1;
        say!(
            "{clean_entries:>8} {:>10} {:>10.2}ms {:>10.2}ms {:>12.0}",
            corpus.artifacts.len(),
            dt1 * 1e3,
            dt4 * 1e3,
            eps
        );
        throughput.push(serde::json::object([
            ("entries", Value::UInt(clean_entries as u64)),
            ("artifacts", Value::UInt(corpus.artifacts.len() as u64)),
            ("one_thread_secs", Value::Float(dt1)),
            ("four_thread_secs", Value::Float(dt4)),
            ("entries_per_sec", Value::Float(eps)),
        ]));
    }
    serde::json::object([
        ("detection", Value::Array(detection)),
        ("total_planted", Value::UInt(corpus.planted_total() as u64)),
        ("precision", Value::Float(score.precision())),
        ("recall", Value::Float(score.recall())),
        ("listings_identical_1_2_4", Value::Bool(identical)),
        ("throughput", Value::Array(throughput)),
    ])
}

/// Telemetry that records into `registry` and journals nothing.
fn with_registry(registry: &vdo_obs::Registry) -> Telemetry {
    Telemetry {
        registry: registry.clone(),
        ..Telemetry::off()
    }
}

/// F1: one observed closed-loop run — the unified registry collects the
/// `pipeline.*` / `core.*` / `ops.*` counters and the per-phase span
/// timings, and equal-seed runs (including an event-driven worker
/// sweep) must produce identical deterministic fingerprints.
fn f1_closed_loop() -> Value {
    say!("\n== F1: closed-loop observability (one pipeline run, unified registry) ==");
    let cfg = PipelineConfig {
        commits: 60,
        ops_duration: 2_000,
        seed: 1,
        ..PipelineConfig::default()
    };
    let registry = vdo_obs::Registry::new();
    let report = run(&cfg, &with_registry(&registry));
    let snapshot = registry.snapshot();

    say!(
        "{:<16} {:>6} {:>12} {:>12}",
        "SPAN",
        "COUNT",
        "TOTAL",
        "MEAN"
    );
    for (path, span) in &snapshot.spans {
        say!(
            "{path:<16} {:>6} {:>10.2}ms {:>10.2}ms",
            span.count,
            span.total_nanos as f64 / 1e6,
            span.mean_nanos() / 1e6
        );
    }
    say!("{:<32} {:>10}", "COUNTER", "VALUE");
    for (name, value) in &snapshot.counters {
        say!("{name:<32} {value:>10}");
    }

    // Equal-seed determinism: a second full run must fingerprint
    // identically (durations excluded by construction).
    let rerun = vdo_obs::Registry::new();
    let _ = run(&cfg, &with_registry(&rerun));
    let equal_seed =
        snapshot.deterministic_fingerprint() == rerun.snapshot().deterministic_fingerprint();

    // Worker sweep on the event-driven operations engine: the exported
    // counters must not depend on the schedule.
    let catalog = ubuntu::catalog();
    let mut fingerprints = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut host = vdo_host::UnixHost::baseline_ubuntu_1804();
        RemediationPlanner::default().run(&catalog, &mut host);
        let reg = vdo_obs::Registry::new();
        OperationsPhase::new(&catalog)
            .run(
                &mut host,
                &SocConfig {
                    duration: 1_000,
                    drift_rate: 0.05,
                    workers,
                    shards: 4,
                    seed: 7,
                    ..SocConfig::default()
                },
                &with_registry(&reg),
            )
            .expect("valid config");
        fingerprints.push(reg.snapshot().deterministic_fingerprint());
    }
    let worker_sweep = fingerprints.windows(2).all(|w| w[0] == w[1]);
    assert!(equal_seed, "equal-seed fingerprints must be identical");
    assert!(
        worker_sweep,
        "event-driven counters must be schedule-independent"
    );
    say!("   equal-seed fingerprints identical:     {equal_seed}");
    say!("   worker-sweep fingerprints identical:   {worker_sweep} (1/2/4 workers)");

    serde::json::object([
        ("report", report.to_value()),
        ("snapshot", snapshot.to_value()),
        ("equal_seed_deterministic", Value::Bool(equal_seed)),
        ("worker_sweep_deterministic", Value::Bool(worker_sweep)),
    ])
}

fn a1_dictionary_ablation() -> Value {
    say!("\n== A1: ablation — NALABS recall vs dictionary fraction (n = 1000) ==");
    say!("   (imperatives metric excluded: the ablation isolates dictionary smells)");
    say!("{:>10} {:>8} {:>10}", "FRACTION", "RECALL", "PRECISION");
    let corpus = workloads::corpus(1_000);
    let mut rows = Vec::new();
    for fraction in [1.0, 0.75, 0.5, 0.25, 0.1] {
        let analyzer = workloads::shrunk_analyzer(fraction);
        let report = analyzer.analyze_corpus(&corpus.documents);
        let pr = report.score_against(&|id| corpus.is_smelly(id));
        say!(
            "{fraction:>10.2} {:>8.3} {:>10.3}",
            pr.recall(),
            pr.precision()
        );
        rows.push(serde::json::object([
            ("fraction", Value::Float(fraction)),
            ("recall", Value::Float(pr.recall())),
            ("precision", Value::Float(pr.precision())),
        ]));
    }
    Value::Array(rows)
}
