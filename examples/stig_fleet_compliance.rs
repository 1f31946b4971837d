//! Fleet compliance sweep (the experiment E3 scenario as a demo).
//!
//! Generates a fleet of drifted Ubuntu hosts, assesses each against the
//! STIG catalogue, remediates, and prints the per-host compliance table
//! plus Windows 10 audit-policy hardening on six drifted Windows hosts.
//!
//! Run with: `cargo run --example stig_fleet_compliance`

use veridevops::core::{PlannerConfig, RemediationPlanner, WaiverSet};
use veridevops::host::{DriftInjector, FleetConfig, FleetStore, Platform, WindowsHost};
use veridevops::stigs::{ubuntu, win10};

fn main() {
    let planner = RemediationPlanner::new(PlannerConfig::default());

    // ---- Ubuntu fleet ----
    let catalog = ubuntu::catalog();
    let config = FleetConfig::builder()
        .size(12)
        .drift_probability(0.7)
        .drift_events_per_host(4)
        .seed(7)
        .platform(Platform::Unix)
        .build()
        .expect("valid fleet config");
    let fleet = FleetStore::generate(&config);
    println!(
        "== Ubuntu fleet: {} hosts, {} drifted ==\n",
        fleet.len(),
        fleet.drifted_count()
    );
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>10}",
        "HOST", "FINDINGS", "FAILING", "REMEDIATED", "OUTCOME"
    );
    let mut total_remediated = 0;
    for i in 0..fleet.len() {
        let mut host = fleet.materialize_unix(i);
        let failing_before = catalog
            .check_all(&host)
            .iter()
            .filter(|(_, v)| !v.is_pass())
            .count();
        let run = planner.run(&catalog, &mut host);
        let s = run.report.summary();
        total_remediated += s.remediated;
        println!(
            "{:<10} {:>8} {:>10} {:>12} {:>10?}",
            format!("host-{i:02}"),
            s.total,
            failing_before,
            s.remediated,
            run.outcome
        );
    }
    println!("\ntotal remediations: {total_remediated}\n");

    // ---- Waivers: accepted risks are skipped, not silently passed ----
    let mut waivers = WaiverSet::new();
    waivers.waive(
        "V-219304",
        "vlock unavailable on the embedded image until the Q3 refresh",
    );
    let mut host = veridevops::host::UnixHost::baseline_ubuntu_1804();
    host.remove_package("vlock");
    let run = planner.run_with_waivers(&catalog, &mut host, &waivers, 0);
    let s = run.report.summary();
    println!(
        "== waiver demo == outcome {:?}: {} waived, {} open findings, vlock installed: {}\n",
        run.outcome,
        s.waived,
        s.failing,
        host.is_package_installed("vlock")
    );

    // ---- Windows fleet: six hosts, each drifted by three events ----
    let wcat = win10::catalog();
    println!("== Windows 10 fleet: 6 hosts ==\n");
    for i in 0..6u64 {
        let mut host = WindowsHost::baseline_win10();
        DriftInjector::new(9 + i + 1).drift(&mut host, Platform::Windows, 3);
        let run = planner.run(&wcat, &mut host);
        println!(
            "win-{i:02}: {:?} after {} enforcement(s); sensitive privilege use now '{}'",
            run.outcome,
            run.enforcements,
            host.audit_policy()
                .get("Privilege Use", "Sensitive Privilege Use")
        );
    }
}
