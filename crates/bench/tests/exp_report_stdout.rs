//! End-to-end check of the `exp_report --json -` machine mode: the
//! JSON document must own stdout byte-for-byte while the human tables
//! move to stderr, because CI pipes stdout straight into a parser.
//! The compat `serde` has no JSON *parser*, so purity is asserted
//! structurally: stdout is one JSON object and carries none of the
//! `== ` table banners the sections narrate with.

use std::process::Command;

fn exp_report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp_report"))
}

#[test]
fn json_dash_keeps_stdout_pure_and_moves_tables_to_stderr() {
    // e8 is the cheapest section: pure requirement-matrix counting,
    // no fleet simulation, so the test stays fast in debug builds.
    let out = exp_report()
        .args(["--json", "-", "--only", "e8_gwt_coverage"])
        .output()
        .expect("spawning exp_report");
    assert!(out.status.success(), "exit: {:?}", out.status);

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");

    // Stdout is exactly one JSON object holding the requested section.
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('{'), "stdout must open a JSON object");
    assert!(trimmed.ends_with('}'), "stdout must close the JSON object");
    assert!(trimmed.contains("\"e8_gwt_coverage\""));
    assert!(
        !stdout.contains("== "),
        "table banners leaked onto stdout:\n{stdout}"
    );

    // The narration did not vanish — it landed on stderr.
    assert!(
        stderr.contains("== "),
        "expected the section table on stderr, got:\n{stderr}"
    );
}

#[test]
fn json_to_file_keeps_tables_on_stdout() {
    let dir = std::env::temp_dir().join(format!("vdo-exp-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    let path = dir.join("report.json");

    let out = exp_report()
        .args(["--json", path.to_str().expect("utf-8 temp path")])
        .args(["--only", "e8_gwt_coverage"])
        .output()
        .expect("spawning exp_report");
    assert!(out.status.success(), "exit: {:?}", out.status);

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        stdout.contains("== "),
        "file mode keeps tables on stdout, got:\n{stdout}"
    );
    let written = std::fs::read_to_string(&path).expect("reading the report");
    assert!(written.trim().starts_with('{'));
    assert!(written.contains("\"e8_gwt_coverage\""));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_only_section_exits_two_and_lists_the_sections() {
    let out = exp_report()
        .args(["--only", "no_such_section"])
        .output()
        .expect("spawning exp_report");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(stderr.contains("no such section"));
    assert!(stderr.contains("e19_telemetry_plane"), "{stderr}");
}

#[test]
fn e2_reports_the_grown_dictionary_row_and_its_budget() {
    let out = exp_report()
        .args(["--json", "-", "--only", "e2_nalabs_throughput"])
        .output()
        .expect("spawning exp_report");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    for key in [
        "\"dictionary_scale\": 10",
        "\"stock_elapsed_secs\"",
        "\"per_doc_ratio\"",
        "\"default_suite_compile_secs\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
    assert_eq!(stdout.matches("\"dictionary_scale\": 1,").count(), 3);
    assert!(
        stderr.contains("e2.grown_10x.per_doc_ratio"),
        "the budget table names the E2 row:\n{stderr}"
    );
}

#[test]
fn e11_rows_report_the_drift_history_both_modes_face() {
    let out = exp_report()
        .args(["--json", "-", "--only", "e11_soc_engine"])
        .output()
        .expect("spawning exp_report");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    // Four fleet sizes, one continuous and one periodic row each.
    assert_eq!(stdout.matches("\"drift_events\"").count(), 8, "{stdout}");
    assert_eq!(stdout.matches("\"engine\": \"event-driven\"").count(), 4);
    assert_eq!(stdout.matches("\"engine\": \"polling-10\"").count(), 4);
    assert_eq!(stdout.matches("\"rules_evaluated\"").count(), 8);
}

#[test]
fn repeated_only_flags_run_the_union_of_their_sections() {
    let out = exp_report()
        .args(["--json", "-"])
        .args(["--only", "e10_pipeline_comparison"])
        .args(["--only", "e11_soc_engine"])
        .output()
        .expect("spawning exp_report");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    for key in ["\"e10_pipeline_comparison\"", "\"e11_soc_engine\""] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
    assert!(!stdout.contains("\"e8_gwt_coverage\""), "{stdout}");

    // Every name is checked, not just the last.
    let out = exp_report()
        .args(["--only", "no_such_section", "--only", "e8_gwt_coverage"])
        .output()
        .expect("spawning exp_report");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(stderr.contains("--only no_such_section"), "{stderr}");
}
