//! `RemediationPlanner::remediate` against `RemediationPlanner::run` on
//! the real STIG catalogues: on clones of the same drifted host, both
//! must leave the same host, record the same counters and journal
//! events, and `remediate`'s verdicts must be `run`'s `final_status`
//! column — which is also what `check_all` reports afterwards.

use proptest::prelude::*;
use vdo_core::{Catalog, CheckStatus, RemediationPlanner};
use vdo_host::{DriftInjector, HostWrite, Platform, UnixHost, WindowsHost};
use vdo_stigs::{ubuntu, win10};
use vdo_trace::{Journal, Telemetry};

/// Runs both entry points on clones of `host` and compares everything
/// they leave behind.
fn assert_equivalent<H>(catalog: &Catalog<H>, host: &H) -> Result<(), TestCaseError>
where
    H: Clone + PartialEq + std::fmt::Debug,
{
    let telemetry = || Telemetry {
        registry: vdo_obs::Registry::new(),
        journal: Journal::new(),
        trace_seed: 7,
    };
    let (on_run, on_remediate) = (telemetry(), telemetry());
    let mut by_run = host.clone();
    let run = RemediationPlanner::default()
        .with_telemetry(on_run.clone())
        .run(catalog, &mut by_run);
    let mut by_remediate = host.clone();
    let verdicts = RemediationPlanner::default()
        .with_telemetry(on_remediate.clone())
        .remediate(catalog, &mut by_remediate);

    prop_assert_eq!(&by_run, &by_remediate);
    let final_status: Vec<CheckStatus> = run
        .report
        .results()
        .iter()
        .map(|r| r.final_status)
        .collect();
    prop_assert_eq!(&verdicts, &final_status);
    let rechecked: Vec<CheckStatus> = catalog
        .check_all(&by_remediate)
        .into_iter()
        .map(|(_, status)| status)
        .collect();
    prop_assert_eq!(&verdicts, &rechecked);
    let (a, b) = (on_run.registry.snapshot(), on_remediate.registry.snapshot());
    for counter in ["core.checks", "core.enforcements"] {
        prop_assert_eq!(a.counter(counter), b.counter(counter), "{}", counter);
    }
    prop_assert_eq!(
        on_run.journal.snapshot().fingerprint(),
        on_remediate.journal.snapshot().fingerprint()
    );
    Ok(())
}

/// `host` after `events` seeded drift events.
fn drifted<H: HostWrite>(mut host: H, platform: Platform, seed: u64, events: usize) -> H {
    DriftInjector::new(seed).drift(&mut host, platform, events);
    host
}

proptest! {
    /// Ubuntu: the planted-violation baseline and hardened hosts after
    /// random drift.
    #[test]
    fn remediate_matches_run_on_drifted_ubuntu_hosts(seed in 0u64..10_000, events in 0usize..12) {
        let catalog = ubuntu::catalog();
        let baseline = UnixHost::baseline_ubuntu_1804();
        assert_equivalent(&catalog, &drifted(baseline.clone(), Platform::Unix, seed, events))?;
        let mut hardened = baseline;
        RemediationPlanner::default().run(&catalog, &mut hardened);
        assert_equivalent(&catalog, &drifted(hardened, Platform::Unix, seed, events))?;
    }

    /// Windows 10: the same on the Win10 catalogue.
    #[test]
    fn remediate_matches_run_on_drifted_windows_hosts(seed in 0u64..10_000, events in 0usize..12) {
        let catalog = win10::catalog();
        let baseline = WindowsHost::baseline_win10();
        assert_equivalent(&catalog, &drifted(baseline.clone(), Platform::Windows, seed, events))?;
        let mut hardened = baseline;
        RemediationPlanner::default().run(&catalog, &mut hardened);
        assert_equivalent(&catalog, &drifted(hardened, Platform::Windows, seed, events))?;
    }
}
