//! Regenerates the D2.7 patterns-catalogue inventory tables
//! (experiment T1).
//!
//! The deliverable's annex enumerates the implemented patterns per
//! package (`rqcode.patterns.temporal`, `rqcode.stigs.ubuntu`,
//! `rqcode.stigs.win10`, the PROPAS scope×pattern matrix); this binary
//! prints the same inventory from the live Rust catalogues, so the
//! numbers can never drift from the code.
//!
//! Run with: `cargo run --example catalogue_inventory`

use veridevops::specpat::pattern::{full_matrix, rqcode_temporal};
use veridevops::specpat::ObserverAutomaton;
use veridevops::stigs::{ubuntu, win10};

fn main() {
    println!("== STIG requirement catalogues ==\n");
    println!(
        "{:<24} {:>6} {:>12} {:>6} {:>6} {:>6}",
        "PACKAGE", "TOTAL", "ENFORCEABLE", "CAT-I", "CAT-II", "CAT-III"
    );
    let ubuntu_inv = ubuntu::catalog().inventory();
    let win_inv = win10::catalog().inventory();
    for inv in [&ubuntu_inv, &win_inv] {
        for (pkg, stats) in inv {
            println!(
                "{:<24} {:>6} {:>12} {:>6} {:>6} {:>6}",
                pkg.to_string(),
                stats.total,
                stats.enforceable,
                stats.high,
                stats.medium,
                stats.low
            );
        }
    }

    println!("\n== temporal pattern classes (rqcode.patterns.temporal) ==\n");
    println!("  {:<24} {:<31} UPPAAL QUERY", "CLASS", "CATALOGUE ENTRY");
    for (name, entry) in rqcode_temporal(10) {
        let query = entry
            .to_uppaal()
            .unwrap_or_else(|_| "(observer only)".to_string());
        println!("  {:<24} {:<31} {}", name, entry.to_string(), query);
    }
    println!("  {:<24} (runtime monitor driver)", "MonitoringLoop");

    println!("\n== PROPAS scope x pattern matrix ==\n");
    let matrix = full_matrix();
    let ltl = matrix.len();
    let ctl = matrix.iter().filter(|p| p.to_ctl().is_ok()).count();
    let uppaal = matrix.iter().filter(|p| p.to_uppaal().is_ok()).count();
    let observers = matrix
        .iter()
        .filter(|p| ObserverAutomaton::for_pattern(p).is_some())
        .count();
    println!("  combinations:        {ltl}");
    println!("  with LTL mapping:    {ltl}");
    println!("  with CTL mapping:    {ctl}");
    println!("  with UPPAAL query:   {uppaal}");
    println!("  with observer:       {observers}");

    println!("\nper-cell detail:");
    println!(
        "  {:<14} {:<18} {:>5} {:>5} {:>8} {:>10}",
        "SCOPE", "PATTERN", "LTL", "CTL", "UPPAAL", "OBSERVER"
    );
    for p in &matrix {
        println!(
            "  {:<14} {:<18} {:>5} {:>5} {:>8} {:>10}",
            p.scope().name(),
            p.kind().name(),
            "yes",
            if p.to_ctl().is_ok() { "yes" } else { "-" },
            if p.to_uppaal().is_ok() { "yes" } else { "-" },
            if ObserverAutomaton::for_pattern(p).is_some() {
                "yes"
            } else {
                "-"
            },
        );
    }
}
