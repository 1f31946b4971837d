//! Incident response walkthrough: streaming detection, forensic diffing,
//! remediation, and accepted-risk waivers.
//!
//! The "reactive protection" half of VeriDevOps, told as one incident:
//! a TEARS guarded assertion watches telemetry *as it streams*; when it
//! fires, the compliance catalogue confirms the host drifted, the
//! snapshot diff names exactly what changed, the planner repairs
//! everything except the one finding the security board has formally
//! waived.
//!
//! Run with: `cargo run --example incident_forensics`

use veridevops::core::{RemediationPlanner, WaiverSet};
use veridevops::host::{diff_hosts, DriftInjector, Platform, UnixHost};
use veridevops::stigs::ubuntu;
use veridevops::tears::{GaMonitor, GuardedAssertion, SignalTrace};

fn main() {
    // -- Day 0: hardened deployment, snapshot taken. --------------------
    let catalog = ubuntu::catalog();
    let planner = RemediationPlanner::default();
    let mut host = UnixHost::baseline_ubuntu_1804();
    planner.run(&catalog, &mut host);
    let known_good = host.clone();
    println!(
        "day 0: host hardened against {} findings; snapshot taken\n",
        catalog.len()
    );

    // -- Operations: a guarded assertion watches login telemetry. -------
    // failed_logons spikes; the SOC expects lockouts to engage within
    // 2 ticks of any spike.
    let ga = GuardedAssertion::parse(
        r#"ga "lockout engages": when failed_logons > 20 then lockouts_active == 1 within 2"#,
    )
    .expect("valid G/A");
    println!("armed: {ga}\n");

    let mut telemetry = SignalTrace::new();
    let mut monitor = GaMonitor::new(&ga);
    // Ticks 0..4 quiet; tick 5 spike; lockout never engages (the drift
    // below disabled it) — violation confirmed at tick 7.
    let feed = [
        (3.0, 0.0),
        (5.0, 0.0),
        (2.0, 0.0),
        (4.0, 0.0),
        (6.0, 0.0),
        (45.0, 0.0), // spike at tick 5
        (40.0, 0.0),
        (38.0, 0.0), // window [5,7] closes: violation
        (12.0, 0.0),
    ];
    let mut detected_at = None;
    for (tick, (fl, la)) in feed.iter().enumerate() {
        telemetry.push_sample([("failed_logons", *fl), ("lockouts_active", *la)]);
        let confirmed = monitor.observe(&telemetry);
        if !confirmed.is_empty() && detected_at.is_none() {
            detected_at = Some(tick);
            println!(
                "tick {tick}: VIOLATION — spike at tick {:?} never answered by a lockout",
                confirmed
            );
        }
    }
    assert_eq!(
        detected_at,
        Some(7),
        "streaming monitor fires when the window closes"
    );

    // -- The incident: meanwhile, the host itself drifted. ---------------
    DriftInjector::new(99).drift(&mut host, Platform::Unix, 4);
    let open: Vec<_> = catalog
        .check_all(&host)
        .into_iter()
        .filter(|(_, v)| !v.is_pass())
        .map(|(e, _)| format!("{} ({})", e.spec().finding_id(), e.spec().severity()))
        .collect();
    println!(
        "\ncompliance sweep after the alert: {} open findings: {:?}",
        open.len(),
        open
    );

    // -- Forensics: what exactly changed since the snapshot? -------------
    println!("\nforensic diff vs day-0 snapshot:");
    for delta in diff_hosts(&known_good, &host) {
        println!("  {delta}");
    }

    // -- Remediation with an accepted risk. ------------------------------
    let mut waivers = WaiverSet::new();
    waivers.waive(
        "V-219304",
        "session-lock package unavailable on this image until the Q3 refresh \
         (risk accepted by the security board, ticket SEC-412)",
    );
    let run = planner.run_with_waivers(&catalog, &mut host, &waivers, 0);
    let s = run.report.summary();
    println!(
        "\nremediation: {:?} — {} repaired, {} waived, {} still open",
        run.outcome, s.remediated, s.waived, s.failing
    );
    println!("\naudit trail (CSV excerpt):");
    for line in run.report.to_csv().lines().take(4) {
        println!("  {line}");
    }
    assert_eq!(s.failing, 0, "everything unwaived must be repaired");
}
