//! From specification pattern to formal property to runtime monitor
//! (the PROPAS workflow, experiments E4–E6 as a demo).
//!
//! Picks security properties, shows their LTL / CTL / UPPAAL renderings,
//! compiles observer automata, model-checks a small intrusion-handling
//! design, and measures runtime detection latency as a function of the
//! monitoring period.
//!
//! Run with: `cargo run --example formalize_and_monitor`

use std::collections::BTreeSet;

use veridevops::core::CheckStatus;
use veridevops::corpus::traces::ViolationTrace;
use veridevops::specpat::{
    CtlFormula, Kripke, ModelChecker, ObserverAutomaton, PatternKind, Scope, SpecPattern,
};
use veridevops::temporal::{MonitorOutcome, MonitoringLoop};

fn obs(atoms: &[&str]) -> BTreeSet<String> {
    atoms.iter().map(|s| s.to_string()).collect()
}

fn main() {
    // 0. Constrained-natural-language requirements (ReSA boilerplates)
    //    compile straight into specification patterns.
    println!("== boilerplate requirements (ReSA) ==\n");
    let document = "\
# security requirements, boilerplate-constrained
The perimeter gateway shall never satisfy telnet_open
Globally, the intrusion detector shall respond to intrusion_detected with operator_alerted within 5 time units
After maintenance_start until maintenance_end, the audit service shall always satisfy audit_enabled
";
    let requirements =
        veridevops::specpat::resa::parse_document(document).expect("boilerplates parse");
    for r in &requirements {
        println!("  {r}");
    }

    // 1. The same patterns, constructed programmatically.
    println!("\n== pattern formalisation ==\n");
    let patterns = vec![
        SpecPattern::new(Scope::Globally, PatternKind::absence("telnet_open")),
        SpecPattern::new(
            Scope::Globally,
            PatternKind::bounded_response("intrusion_detected", "operator_alerted", 5),
        ),
        SpecPattern::new(
            Scope::after_until("maintenance_start", "maintenance_end"),
            PatternKind::universality("audit_enabled"),
        ),
    ];
    assert_eq!(
        requirements.iter().map(|r| r.pattern()).collect::<Vec<_>>(),
        patterns.iter().collect::<Vec<_>>(),
        "boilerplate text and programmatic construction agree"
    );
    for p in &patterns {
        println!("{}: {}", p, p.describe());
        println!("  LTL:    {}", p.to_ltl());
        match p.to_ctl() {
            Ok(c) => println!("  CTL:    {c}"),
            Err(e) => println!("  CTL:    ({e})"),
        }
        match p.to_uppaal() {
            Ok(q) => println!("  UPPAAL: {q}"),
            Err(e) => println!("  UPPAAL: ({e})"),
        }
        println!();
    }

    // 2. Observer automaton detects a late alert on a trace.
    println!("== observer automaton ==\n");
    let bounded = &patterns[1];
    let observer = ObserverAutomaton::for_pattern(bounded).expect("globally-scoped");
    let trace = vec![
        obs(&[]),
        obs(&["intrusion_detected"]),
        obs(&[]),
        obs(&[]),
        obs(&[]),
        obs(&[]),
        obs(&[]),                   // deadline (5 ticks) passes here
        obs(&["operator_alerted"]), // too late
    ];
    let outcome = observer.run(&trace);
    println!(
        "observer '{}': verdict {}, violation at tick {:?}",
        observer.name(),
        outcome.prefix,
        outcome.violation_at
    );
    assert_eq!(outcome.prefix, CheckStatus::Fail);

    // 3. CTL model checking of an intrusion-handling design.
    println!("\n== CTL model checking ==\n");
    let mut design = Kripke::new();
    let normal = design.add_state(["audit_enabled"]);
    let intruded = design.add_state(["audit_enabled", "intrusion_detected"]);
    let alerted = design.add_state(["audit_enabled", "operator_alerted"]);
    design.add_transition(normal, normal);
    design.add_transition(normal, intruded);
    design.add_transition(intruded, alerted);
    design.add_transition(alerted, normal);
    design.set_initial(normal);
    let mc = ModelChecker::new(&design);
    let props: Vec<(&str, CtlFormula)> = vec![
        (
            "AG audit_enabled",
            CtlFormula::ag(CtlFormula::atom("audit_enabled")),
        ),
        (
            "AG (intrusion -> AF alerted)",
            CtlFormula::ag(CtlFormula::implies(
                CtlFormula::atom("intrusion_detected"),
                CtlFormula::af(CtlFormula::atom("operator_alerted")),
            )),
        ),
        (
            "AF intrusion (should fail)",
            CtlFormula::af(CtlFormula::atom("intrusion_detected")),
        ),
    ];
    for (name, f) in &props {
        println!(
            "  {:<32} {}",
            name,
            if mc.holds(f) { "HOLDS" } else { "violated" }
        );
    }

    // 4. Runtime monitoring: the invariant's observer, compiled into a
    //    monitor over the service's up/down stream; polling period vs
    //    detection latency.
    println!("\n== monitoring latency vs polling period ==\n");
    let workload = ViolationTrace::at(600, 361);
    let invariant = SpecPattern::new(Scope::Globally, PatternKind::universality("up"));
    let observer = ObserverAutomaton::for_pattern(&invariant).expect("globally-scoped");
    let up = |up: &bool| CheckStatus::from(*up);
    println!("{:>8} {:>12} {:>9}", "PERIOD", "DETECTED_AT", "LATENCY");
    for period in [1, 2, 5, 10, 25, 50, 100] {
        let monitor = observer.monitor(&[("up", &up)]).expect("bound");
        let report = MonitoringLoop::new(period)
            .expect("nonzero period")
            .run(monitor, &workload.trace);
        let latency = report
            .detection_latency(workload.violation_tick)
            .map_or("missed".to_string(), |l| l.to_string());
        println!(
            "{:>8} {:>12} {:>9}",
            period,
            match report.outcome {
                MonitorOutcome::ViolationDetected(t) => t.to_string(),
                _ => "-".to_string(),
            },
            latency
        );
    }
}
