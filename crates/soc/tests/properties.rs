//! Property tests for the SOC engine's three load-bearing guarantees:
//! the latency advantage over polling, per-shard event ordering under
//! concurrent publishers, and bounded-retry termination into the
//! dead-letter queue.

use std::sync::Arc;

use proptest::prelude::*;

use vdo_core::{CheckStatus, RemediationPlanner};
use vdo_host::UnixHost;
use vdo_pipeline::{MonitorEngine, OperationsPhase, OpsConfig};
use vdo_soc::{
    Dispatcher, PublishError, RemediationConfig, RemediationTask, SecEvent, ShardedBus, SocConfig,
    SocEngine,
};
use vdo_stigs::ubuntu;
use vdo_temporal::{GlobalUniversality, MonitorOutcome, MonitoringLoop};

proptest! {
    /// For every polling period `p >= 1` and every drift history, the
    /// event-driven engine's mean detection latency is no worse than
    /// the polling monitor's — on the *same* violation history (equal
    /// seeds give both engines identical drift streams).
    #[test]
    fn event_driven_latency_never_exceeds_polling(seed in 0u64..10_000, period in 1u64..40) {
        let catalog = ubuntu::catalog();
        let planner = RemediationPlanner::default();
        let base = OpsConfig {
            duration: 300,
            drift_rate: 0.05,
            monitor_period: Some(period),
            audit_period: 0,
            seed,
            ..OpsConfig::default()
        };

        let mut polled_host = UnixHost::baseline_ubuntu_1804();
        planner.run(&catalog, &mut polled_host);
        let polled = OperationsPhase::new(&catalog).run(&mut polled_host, &base, &vdo_trace::Telemetry::off());

        let mut event_host = UnixHost::baseline_ubuntu_1804();
        planner.run(&catalog, &mut event_host);
        let eventful = OperationsPhase::new(&catalog).run(
            &mut event_host,
            &OpsConfig {
                engine: MonitorEngine::EventDriven { workers: 1 },
                ..base
            }, &vdo_trace::Telemetry::off()
        );

        prop_assert_eq!(polled.drift_events, eventful.drift_events,
            "equal seeds must give equal drift streams");
        prop_assert!(eventful.incidents.iter().all(|i| i.latency() == 0),
            "event-driven detection is same-tick");
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
        let pattern = GlobalUniversality::new(|ok: &bool| CheckStatus::from(*ok));
        let poll = MonitoringLoop::new(period)
            .expect("nonzero period")
            .run(&pattern, &report.fleet_compliance_trace);
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
