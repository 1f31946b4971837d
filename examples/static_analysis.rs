//! The requirements lint engine (experiment E13 as a demo).
//!
//! Builds one artifact set containing a defect for every lint class
//! `VDA001`–`VDA011` next to clean artifacts, runs the analyzer, prints
//! the diagnostic listing, then shows per-lint configuration (demoting
//! a lint to a warning) and the gate verdict the pipeline would reach.
//!
//! Run with: `cargo run --example static_analysis`

use veridevops::analyze::{
    AnalysisConfig, Analyzer, ArtifactSet, EntryArtifact, LintCode, LintLevel,
};
use veridevops::core::{Guard, Waiver};
use veridevops::gwt::GraphModel;
use veridevops::tears::{parse_guard, GuardedAssertion};
use veridevops::temporal::Formula;

fn main() {
    // One revision's worth of requirements-as-code artifacts, with a
    // planted defect for every lint class.
    let mut island = GraphModel::new("door-controller");
    let closed = island.add_vertex("closed");
    let open = island.add_vertex("open");
    let ajar = island.add_vertex("ajar"); // never reached from start
    island.add_edge(closed, open, "unlock");
    island.add_edge(open, closed, "lock");
    island.add_edge(ajar, closed, "slam");
    island.set_start(closed);

    let artifacts = ArtifactSet::new()
        .at_tick(100)
        // VDA001: an entry that requires ssh both enabled and disabled.
        .with_entry(
            EntryArtifact::new("V-9001")
                .title("contradictory")
                .expr(Guard::all_of([
                    Guard::atom("sshd.enabled"),
                    Guard::not(Guard::atom("sshd.enabled")),
                ])),
        )
        // VDA002: the same check registered twice under two ids.
        .with_entry(
            EntryArtifact::new("V-9002")
                .title("original")
                .expr(Guard::atom("audit.enabled")),
        )
        .with_entry(
            EntryArtifact::new("V-9003")
                .title("accidental copy")
                .expr(Guard::atom("audit.enabled")),
        )
        // VDA003: a weak entry a stronger sibling already implies.
        .with_entry(
            EntryArtifact::new("V-9004")
                .title("weak")
                .expr(Guard::atom("tls.enabled")),
        )
        .with_entry(
            EntryArtifact::new("V-9005")
                .title("strong")
                .expr(Guard::all_of([
                    Guard::atom("tls.enabled"),
                    Guard::atom("tls.v13_only"),
                ])),
        )
        // A clean entry for contrast.
        .with_entry(
            EntryArtifact::new("V-9006")
                .title("fine")
                .expr(Guard::all_of([
                    Guard::atom("fips.enabled"),
                    Guard::not(Guard::atom("telnet.installed")),
                ])),
        )
        // VDA004: a waiver for a finding nobody catalogues.
        .with_waiver(Waiver {
            finding_id: "V-RETIRED".into(),
            reason: "kept after the entry was deleted".into(),
            expires_at: None,
        })
        // VDA005: a waiver that lapsed at tick 40 (it is now tick 100).
        .with_waiver(Waiver {
            finding_id: "V-9006".into(),
            reason: "vendor fix due Q3".into(),
            expires_at: Some(40),
        })
        // VDA006: a monitor that pages on every run.
        .with_formula(
            "always-and-never-locked",
            Formula::and(
                Formula::globally(Formula::atom("locked")),
                Formula::finally(Formula::not(Formula::atom("locked"))),
            ),
        )
        // VDA007: a monitor that can never fire.
        .with_formula(
            "locked-or-not",
            Formula::or(
                Formula::atom("locked"),
                Formula::not(Formula::atom("locked")),
            ),
        )
        // VDA008: a response pattern whose trigger is unsatisfiable.
        .with_formula(
            "alarm-on-impossible",
            Formula::globally(Formula::implies(
                Formula::and(Formula::atom("armed"), Formula::not(Formula::atom("armed"))),
                Formula::finally(Formula::or(
                    Formula::or(Formula::atom("page"), Formula::atom("email")),
                    Formula::or(Formula::atom("sms"), Formula::atom("siren")),
                )),
            )),
        )
        // VDA009: the model with the unreachable "ajar" state.
        .with_model(island)
        // VDA010: a guard no telemetry can satisfy.
        .with_assertion(GuardedAssertion::new(
            "throttle-on-impossible-load",
            parse_guard("load > 1 and load < 0").expect("guard parses"),
            parse_guard("throttled == 1").expect("assertion parses"),
            5,
        ))
        // VDA011: V-9007 is checked by no gate and watched by no monitor.
        .with_entry(
            EntryArtifact::new("V-9007")
                .title("untraced")
                .expr(Guard::atom("grub.password_set")),
        )
        .covered_dev("V-9001")
        .covered_dev("V-9002")
        .covered_dev("V-9003")
        .covered_dev("V-9004")
        .covered_dev("V-9005")
        .covered_dev("V-9006");

    println!(
        "artifact set: {} artifacts ({} entries, {} waivers, {} formulas, \
         {} models, {} assertions)\n",
        artifacts.len(),
        artifacts.entries.len(),
        artifacts.waivers.len(),
        artifacts.formulas.len(),
        artifacts.models.len(),
        artifacts.assertions.len()
    );

    // Default config: every lint denies.
    let report = Analyzer::new(AnalysisConfig::default()).analyze(&artifacts);
    println!("{report}\n");

    println!("lint catalogue exercised:");
    for code in LintCode::ALL {
        let hits = report.by_code(code).count();
        println!(
            "  {} {:<24} {} finding(s)",
            code.as_str(),
            code.name(),
            hits
        );
    }

    // Per-lint policy: accept subsumption as a warning while a
    // catalogue refactor is in flight, ignore traceability entirely.
    let relaxed = AnalysisConfig::builder()
        .level(LintCode::SubsumedEntry, LintLevel::Warn)
        .level(LintCode::UntracedRequirement, LintLevel::Allow)
        .build()
        .expect("valid config");
    let relaxed_report = Analyzer::new(relaxed).analyze(&artifacts);
    println!(
        "\nrelaxed config: {} errors, {} warnings (subsumption demoted, \
         traceability allowed)",
        relaxed_report.error_count(),
        relaxed_report.warning_count()
    );

    // The pipeline's analysis gate fails a commit iff errors remain.
    println!(
        "gate verdict: {}",
        if report.has_errors() {
            "REJECT (fix the artifacts before merging)"
        } else {
            "PASS"
        }
    );
}
