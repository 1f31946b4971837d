//! Observational-equivalence properties: the columnar [`FleetStore`]
//! must be indistinguishable from owned per-host structs drifted the
//! same way at equal seeds — same drift counts, same diff reports, same
//! STIG verdicts and planner runs — across the whole configuration
//! space. The owned side comes from [`owned_fleet`], an oracle written
//! independently of [`FleetStore::generate`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdo_core::{Catalog, CheckStatus, PlannerConfig, RemediationPlanner};
use vdo_host::{
    diff_hosts, DriftInjector, FleetConfig, FleetStore, HostRead, HostViewMut, HostWrite, Platform,
    UnixHost, WindowsHost,
};
use vdo_stigs::sweep::catalog_of;
use vdo_stigs::{ubuntu, win10};

fn cfg(size: usize, seed: u64, p: f64, platform: Platform) -> FleetConfig {
    FleetConfig::builder()
        .size(size)
        .seed(seed)
        .drift_probability(p)
        .drift_events_per_host(4)
        .platform(platform)
        .build()
        .expect("valid config")
}

/// Drift probabilities with both edges drawn often: 0 must leave every
/// host pristine and 1 must drift every host.
fn probability() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]
}

/// The oracle: one owned host per slot, drifted iff the master coin
/// (seeded with `config.seed`) says so, by an injector seeded
/// `seed + i + 1`. Returns the hosts and how many drifted.
fn owned_fleet<H: HostWrite>(config: &FleetConfig, baseline: fn() -> H) -> (Vec<H>, usize) {
    let mut coin = StdRng::seed_from_u64(config.seed);
    let mut drifted = 0;
    let hosts = (0..config.size)
        .map(|i| {
            let mut host = baseline();
            if coin.gen_bool(config.drift_probability) {
                DriftInjector::new(config.seed.wrapping_add(i as u64 + 1)).drift(
                    &mut host,
                    config.platform,
                    config.drift_events_per_host,
                );
                drifted += 1;
            }
            host
        })
        .collect();
    (hosts, drifted)
}

/// One Unix config: the store (generated twice, for determinism), its
/// views, its materialized hosts and the oracle's hosts agree on drift
/// counts, diffs against the baseline, `ubuntu::catalog()` verdicts and
/// planner runs. Struct `==` is not compared: overlay replay may order
/// a materialized host's directives differently.
fn store_matches_oracle(config: &FleetConfig) -> Result<(), TestCaseError> {
    let store = FleetStore::generate(config);
    let again = FleetStore::generate(config);
    let (oracle, drifted) = owned_fleet(config, UnixHost::baseline_ubuntu_1804);
    prop_assert_eq!(store.drifted_count(), drifted);
    prop_assert_eq!(again.drifted_count(), drifted);
    if config.drift_probability == 0.0 {
        prop_assert_eq!(drifted, 0);
    }
    if config.drift_probability == 1.0 {
        prop_assert_eq!(drifted, config.size);
    }

    let base = UnixHost::baseline_ubuntu_1804();
    let cat = ubuntu::catalog();
    let rules = ubuntu::rules();
    let planner = RemediationPlanner::new(PlannerConfig::default());
    let verdicts = |host: &UnixHost| -> Vec<CheckStatus> {
        cat.check_all(host).iter().map(|(_, v)| *v).collect()
    };
    for (i, mut owned) in oracle.into_iter().enumerate() {
        let view = store.host(i);
        let mut materialized = store.materialize_unix(i);
        let diff = diff_hosts(&base, &owned);
        prop_assert_eq!(&diff, &diff_hosts(&base, &view), "host {} view diff", i);
        prop_assert_eq!(
            &diff,
            &diff_hosts(&base, &again.host(i)),
            "host {} rerun",
            i
        );
        prop_assert_eq!(
            &diff,
            &diff_hosts(&base, &materialized),
            "host {} materialized",
            i
        );

        // The catalogue is built from `rules()` in order, so entry j of
        // `check_all` and rule j's op evaluate the same finding.
        let expected = verdicts(&owned);
        let on_view: Vec<CheckStatus> = rules.iter().map(|r| r.op().check(&view)).collect();
        prop_assert_eq!(&expected, &on_view, "host {} view verdicts", i);
        prop_assert_eq!(&expected, &verdicts(&materialized), "host {} verdicts", i);

        let a = planner.run(&cat, &mut owned);
        let b = planner.run(&cat, &mut materialized);
        prop_assert_eq!(
            (a.report.summary().remediated, a.outcome, a.enforcements),
            (b.report.summary().remediated, b.outcome, b.enforcements),
            "host {} planner run",
            i
        );
    }
    Ok(())
}

/// Fixed configs that earlier unit tests pinned, each an edge of the
/// generator: three-event drift at p = 0.5, a pristine fleet and a
/// fully drifted one.
#[test]
fn fixed_configs_match_the_oracle() {
    for (size, seed, p) in [
        (40, 11, 0.5),
        (15, 23, 0.5),
        (20, 9, 0.5),
        (5, 0, 0.0),
        (8, 0, 1.0),
    ] {
        let config = FleetConfig {
            drift_events_per_host: 3,
            ..cfg(size, seed, p, Platform::Unix)
        };
        store_matches_oracle(&config).unwrap_or_else(|e| panic!("{config:?}: {e}"));
    }
}

/// No drift event writes a kernel parameter, so a store host gets a
/// kernel overlay only from an enforcement write. The planner, run on
/// the store's views, writes `kernel.dmesg_restrict` (the Ubuntu
/// baseline holds 0); every materialized host must then match the
/// oracle host the same planner hardened.
#[test]
fn planner_runs_on_views_materialize_like_the_oracle() {
    let config = cfg(12, 5, 0.5, Platform::Unix);
    let mut store = FleetStore::generate(&config);
    let (oracle, _) = owned_fleet(&config, UnixHost::baseline_ubuntu_1804);
    let base = UnixHost::baseline_ubuntu_1804();
    assert_eq!(base.kernel_param("kernel.dmesg_restrict"), Some("0"));
    let planner = RemediationPlanner::new(PlannerConfig::default());
    let cat = ubuntu::catalog();
    for (i, mut owned) in oracle.into_iter().enumerate() {
        let on_view = {
            let views: Catalog<HostViewMut<'_>> = catalog_of("ubuntu", ubuntu::rules());
            planner.run(&views, &mut store.host_mut(i))
        };
        let on_owned = planner.run(&cat, &mut owned);
        assert_eq!(
            (on_view.outcome, on_view.enforcements),
            (on_owned.outcome, on_owned.enforcements),
            "host {i} planner run"
        );
        assert_eq!(
            store.host(i).kernel_param("kernel.dmesg_restrict"),
            Some("1")
        );
        let materialized = store.materialize_unix(i);
        assert_eq!(
            materialized.kernel_param("kernel.dmesg_restrict"),
            Some("1"),
            "host {i} kernel overlay"
        );
        assert_eq!(
            diff_hosts(&base, &materialized),
            diff_hosts(&base, &owned),
            "host {i} materialized"
        );
        let verdicts = |host: &UnixHost| cat.check_all(host).iter().map(|(_, v)| *v).collect();
        let expected: Vec<CheckStatus> = verdicts(&owned);
        assert_eq!(expected, verdicts(&materialized), "host {i} verdicts");
    }
}

proptest! {
    /// Equal seeds ⇒ the columnar store and the owned oracle drift the
    /// same hosts, diff identically against the baseline, give the same
    /// STIG verdicts and remediate the same way.
    #[test]
    fn store_and_oracle_agree_observably(
        seed in 0u64..300,
        size in 1usize..30,
        p in probability(),
    ) {
        store_matches_oracle(&cfg(size, seed, p, Platform::Unix))?;
    }

    /// Materializing a store host yields a struct that diffs empty
    /// against the store view it came from.
    #[test]
    fn materialized_hosts_match_their_views(
        seed in 0u64..300,
        size in 1usize..20,
    ) {
        let config = cfg(size, seed, 0.8, Platform::Unix);
        let store = FleetStore::generate(&config);
        for i in 0..store.len() {
            let owned = store.materialize_unix(i);
            prop_assert!(diff_hosts(&owned, &store.host(i)).is_empty());
            prop_assert!(diff_hosts(&store.host(i), &owned).is_empty());
        }
    }

    /// Windows fleets agree with the oracle on the trait-visible surface
    /// and on `win10::catalog()` verdicts at equal seeds.
    #[test]
    fn windows_store_and_oracle_agree(
        seed in 0u64..200,
        size in 1usize..20,
        p in probability(),
    ) {
        let config = cfg(size, seed, p, Platform::Windows);
        let store = FleetStore::generate(&config);
        let (oracle, drifted) = owned_fleet(&config, WindowsHost::baseline_win10);
        prop_assert_eq!(store.platform(), Platform::Windows);
        prop_assert_eq!(store.drifted_count(), drifted);
        if p == 1.0 {
            prop_assert_eq!(drifted, size);
        }
        let cat = win10::catalog();
        let rules = win10::rules();
        for (i, host) in oracle.iter().enumerate() {
            let view = store.host(i);
            for (c, s) in [
                ("Account Management", "User Account Management"),
                ("Logon/Logoff", "Logon"),
                ("Privilege Use", "Sensitive Privilege Use"),
                ("Account Logon", "Credential Validation"),
            ] {
                prop_assert_eq!(host.audit_setting(c, s), view.audit_setting(c, s));
            }
            prop_assert_eq!(host.lockout_threshold(), view.lockout_threshold());
            prop_assert_eq!(
                host.lockout_duration_minutes(),
                view.lockout_duration_minutes()
            );
            prop_assert_eq!(
                HostRead::registry_value(
                    host,
                    r"HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Policies\System",
                    "EnableLUA"
                ),
                view.registry_value(
                    r"HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Policies\System",
                    "EnableLUA"
                )
            );
            let expected: Vec<CheckStatus> =
                cat.check_all(host).iter().map(|(_, v)| *v).collect();
            let on_view: Vec<CheckStatus> = rules.iter().map(|r| r.op().check(&view)).collect();
            prop_assert_eq!(expected, on_view, "host {} verdicts", i);
        }
    }

    /// Writing the same drift stream through a store view and an owned
    /// struct leaves the two representations observationally equal, and
    /// the dirty set names exactly the touched host.
    #[test]
    fn drift_through_views_matches_owned_structs(
        seed in 0u64..300,
        events in 1usize..10,
    ) {
        let config = cfg(5, 1, 0.0, Platform::Unix);
        let mut store = FleetStore::generate(&config);
        let mut owned = UnixHost::baseline_ubuntu_1804();

        let ev_a = DriftInjector::new(seed).drift(&mut store.host_mut(2), Platform::Unix, events);
        let ev_b = DriftInjector::new(seed).drift(&mut owned, Platform::Unix, events);
        prop_assert_eq!(ev_a, ev_b, "identical RNG draws on both representations");
        prop_assert!(diff_hosts(&owned, &store.host(2)).is_empty());

        let dirty = store.take_dirty();
        prop_assert!(dirty.iter().all(|&h| h == 2));
        prop_assert!(store.take_dirty().is_empty(), "take_dirty drains");
    }
}
