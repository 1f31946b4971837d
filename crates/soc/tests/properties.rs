//! Property tests for the SOC engine's load-bearing guarantees: keyed
//! drift histories, the latency advantage of continuous detection over
//! a periodic monitor, per-shard event ordering under concurrent
//! publishers, and bounded-retry termination into the dead-letter
//! queue.

use std::sync::Arc;

use proptest::prelude::*;

use vdo_core::{CheckStatus, RemediationPlanner};
use vdo_host::UnixHost;
use vdo_soc::{
    DetectionMode, Dispatcher, PublishError, RemediationConfig, RemediationTask, SecEvent,
    ShardedBus, SocConfig, SocEngine, SocMetrics, SocReport, SocTracing,
};
use vdo_specpat::{ObserverAutomaton, PatternKind, Scope, SpecPattern};
use vdo_stigs::ubuntu;
use vdo_temporal::{MonitorOutcome, MonitoringLoop};
use vdo_trace::Journal;

/// One host's drift events as `(tick, detail)`, in tick order.
type DriftLog = Vec<(u64, String)>;

/// Runs `config` over `hosts` hardened Ubuntu hosts and returns the
/// report with every host's drift log, read from the run's Debug-floor
/// journal.
fn run_logged(config: &SocConfig, hosts: usize) -> (SocReport, Vec<DriftLog>) {
    let catalog = ubuntu::catalog();
    let mut host = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default().run(&catalog, &mut host);
    let mut fleet = vec![host; hosts];
    let journal = Journal::new();
    let report = SocEngine::new(&catalog, config.clone())
        .expect("valid config")
        .run_traced(
            &mut fleet,
            &SocMetrics::new(),
            &SocTracing::new(journal.clone(), 1),
        );
    let snap = journal.snapshot();
    assert_eq!(snap.dropped(), 0, "the journal holds the whole run");
    let mut logs = vec![DriftLog::new(); hosts];
    for event in snap.events_named("soc.drift") {
        let field = |key: &str| {
            event
                .fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
                .expect("soc.drift carries host and detail")
        };
        let host: usize = field("host").parse().expect("a host index");
        logs[host].push((event.at, field("detail")));
    }
    for log in &mut logs {
        log.sort();
    }
    let logged: usize = logs.iter().map(Vec::len).sum();
    assert_eq!(report.drift_events, logged as u64);
    (report, logs)
}

proptest! {
    /// A host's drift history is keyed by `(seed, host, tick)`, not
    /// drawn from a stream: at equal seed, each of the first `n` hosts
    /// drifts at the same ticks with the same details in a fleet of `n`
    /// hosts as in one of `n + k`, whatever the shard count, the worker
    /// count or the detection mode of either run.
    #[test]
    fn drift_history_is_keyed_not_streamed(
        seed in 0u64..10_000,
        n in 1usize..6,
        k in 1usize..6,
        shards in prop::sample::select(vec![1usize, 4, 16]),
        other_shards in prop::sample::select(vec![1usize, 4, 16]),
        workers in 1usize..3,
        other_workers in 1usize..3,
        period in prop::sample::select(vec![None, Some(1u64), Some(7)]),
    ) {
        let base = SocConfig {
            duration: 120,
            drift_rate: 0.1,
            workers,
            shards,
            seed,
            ..SocConfig::default()
        };
        let other = SocConfig {
            workers: other_workers,
            shards: other_shards,
            detection: match period {
                None => DetectionMode::Continuous,
                Some(p) => DetectionMode::Periodic { monitor: Some(p), audit: 50 },
            },
            ..base.clone()
        };
        let (_, small) = run_logged(&base, n);
        let (_, large) = run_logged(&other, n + k);
        prop_assert!(small.iter().any(|log| !log.is_empty()),
            "10% drift over 120 ticks must hit some host");
        prop_assert_eq!(&large[..n], &small[..]);
    }

    /// For every monitor period `p >= 1` and every drift history,
    /// continuous detection's mean latency is no worse than a periodic
    /// monitor's — on the *same* drift history: the two runs share one
    /// configuration but for the detection mode, and their drift logs
    /// are equal.
    #[test]
    fn event_driven_latency_never_exceeds_polling(seed in 0u64..10_000, period in 1u64..40) {
        let continuous = SocConfig {
            duration: 300,
            drift_rate: 0.05,
            workers: 1,
            shards: 2,
            seed,
            ..SocConfig::default()
        };
        let periodic = SocConfig {
            detection: DetectionMode::Periodic { monitor: Some(period), audit: 0 },
            ..continuous.clone()
        };
        let (eventful, eventful_log) = run_logged(&continuous, 1);
        let (polled, polled_log) = run_logged(&periodic, 1);

        prop_assert_eq!(eventful_log, polled_log,
            "equal seeds must give equal drift histories in both modes");
        prop_assert!(eventful.incidents.iter().all(|i| i.latency() == 0),
            "event-driven detection is same-tick");
        prop_assert!(polled.incidents.iter().all(|i| i.latency() < period),
            "a monitor of period {} waits at most {} ticks", period, period - 1);
        prop_assert!(
            eventful.mean_detection_latency() <= polled.mean_detection_latency(),
            "event-driven {} > polling {} at period {}",
            eventful.mean_detection_latency(),
            polled.mean_detection_latency(),
            period
        );
    }

    /// Cross-check against `MonitoringLoop`, the paper's polling
    /// primitive: polling the engine's own ground-truth compliance
    /// trace at any period detects a violation no earlier than the
    /// tick it happened — i.e. with latency >= 0, the event-driven
    /// engine's latency on every incident.
    #[test]
    fn monitoring_loop_on_ground_truth_is_never_early(seed in 0u64..10_000, period in 1u64..40) {
        let catalog = ubuntu::catalog();
        let planner = RemediationPlanner::default();
        let mut host = UnixHost::baseline_ubuntu_1804();
        planner.run(&catalog, &mut host);
        // All remediations fail, so violations persist in the trace
        // and a poller has something to find.
        let engine = SocEngine::new(&catalog, SocConfig {
            duration: 300,
            drift_rate: 0.05,
            workers: 1,
            shards: 2,
            seed,
            remediation: RemediationConfig { fault_rate: 1.0, ..RemediationConfig::default() },
            ..SocConfig::default()
        }).expect("valid config");
        let report = engine.run(std::slice::from_mut(&mut host));

        let first_violation = report
            .fleet_compliance_trace
            .states()
            .iter()
            .position(|&ok| !ok)
            .map(|i| i as u64);
        let pattern = SpecPattern::new(Scope::Globally, PatternKind::universality("ok"));
        let observer = ObserverAutomaton::for_pattern(&pattern).expect("observer");
        let ok = |ok: &bool| CheckStatus::from(*ok);
        let poll = MonitoringLoop::new(period)
            .expect("nonzero period")
            .run(observer.monitor(&[("ok", &ok)]).expect("bound"), &report.fleet_compliance_trace);
        match (first_violation, poll.outcome) {
            (Some(tick), MonitorOutcome::ViolationDetected(at)) => {
                let latency = poll.detection_latency(tick).expect("detected after violation");
                prop_assert!(at >= tick, "poller detected before the violation");
                prop_assert!(latency < period,
                    "polling latency {} must stay below the period {}", latency, period);
                // The event-driven engine saw the same first violation
                // with zero latency.
                let earliest = report.incidents.iter().map(|i| i.introduced_at).min();
                prop_assert_eq!(earliest, Some(tick));
            }
            (None, outcome) => {
                prop_assert!(!matches!(outcome, MonitorOutcome::ViolationDetected(_)),
                    "poller found a violation in an always-compliant trace");
                prop_assert!(report.incidents.is_empty());
            }
            (Some(tick), outcome) => {
                // A violation in the last `period - 1` ticks can slip
                // past the final poll; anything earlier must be caught.
                prop_assert!(300 - tick < period,
                    "poller missed a violation at tick {} (outcome {:?})", tick, outcome);
            }
        }
    }

    /// Concurrent publishers never corrupt a shard's order: every
    /// shard drains with gap-free, strictly increasing sequence
    /// numbers regardless of shard count, publisher count, or load.
    #[test]
    fn shards_stay_ordered_under_concurrent_publishers(
        shards in 1usize..8,
        publishers in 1usize..5,
        per_publisher in 1usize..200,
        host_spread in 1usize..32,
    ) {
        let bus = Arc::new(ShardedBus::new(shards, 4096));
        let handles: Vec<_> = (0..publishers)
            .map(|p| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for i in 0..per_publisher {
                        let event = SecEvent::SignalTick {
                            host: (p * 31 + i) % host_spread,
                            tick: i as u64,
                            signals: [("load", 0.5), ("lockout", 0.0)],
                        };
                        match bus.publish(event) {
                            Ok(_) | Err(PublishError::Backpressure(_)) => {}
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("publisher panicked");
        }
        for shard in 0..shards {
            let mut expected = 0u64;
            while let Some(env) = bus.pop(shard) {
                prop_assert_eq!(env.shard, shard);
                prop_assert_eq!(env.seq, expected, "gap in shard {}", shard);
                expected += 1;
            }
        }
    }

    /// With permanent faults, every scheduled remediation terminates:
    /// it is retried exactly `max_retries` times with exponential
    /// backoff and then lands in the dead-letter queue. No task loops
    /// forever, none is lost — also past 64 retries, where the backoff
    /// saturates instead of overflowing.
    #[test]
    fn permanent_faults_always_terminate_in_the_dlq(
        tasks in 1usize..20,
        max_retries in prop_oneof![0u32..6, 60u32..130],
        backoff_base in 1u64..8,
        seed in 0u64..10_000,
    ) {
        let cfg = RemediationConfig { max_retries, backoff_base, fault_rate: 1.0 };
        let mut dispatcher = Dispatcher::new(cfg, seed);
        for t in 0..tasks {
            dispatcher.schedule(0, RemediationTask {
                host: t,
                rule: format!("rule-{t}"),
                introduced_at: 0,
                detected_at: 0,
                attempt: 0,
                trace: None,
            });
        }
        // Worst-case completion: every task retries at every backoff.
        let horizon: u64 = (0..=max_retries)
            .map(|n| backoff_base.saturating_mul(2u64.saturating_pow(n)))
            .fold(1, u64::saturating_add);
        // Jump from one due tick to the next: the horizon can be the
        // end of time.
        while let Some(tick) = dispatcher.next_due() {
            prop_assert!(tick <= horizon, "task due at {} past the horizon {}", tick, horizon);
            for task in dispatcher.take_due(tick) {
                prop_assert!(dispatcher.fault_injected(&task), "fault rate 1.0 always faults");
                dispatcher.on_failure(task, tick);
            }
        }
        prop_assert_eq!(dispatcher.pending(), 0, "tasks still scheduled past the horizon");
        prop_assert_eq!(dispatcher.dead_letters().len(), tasks);
        for dl in dispatcher.dead_letters() {
            prop_assert_eq!(dl.task.attempt, max_retries + 1,
                "dead letter records the attempt count");
        }
    }
}
