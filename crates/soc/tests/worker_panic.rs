//! A catalogue check that panics on a pool worker must fail the run with
//! its own panic, not leave the engine waiting on a worker that will
//! never finish its pass.
//!
//! The run goes on a thread of its own, so a hang shows as a receive
//! timeout instead of a stuck test binary.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use vdo_core::{CheckStatus, RemediationPlanner, RequirementSpec, Severity};
use vdo_host::UnixHost;
use vdo_soc::{SocConfig, SocEngine};
use vdo_stigs::ubuntu;

/// The run's thread; the pool's own workers are unnamed.
const RUN_THREAD: &str = "soc-run";

/// The check fails on its N-th call on a pool worker. Tick 0's baseline
/// audit alone calls it once per host (64 calls over 16 busy shards), and
/// drift re-checks follow on every tick, so the workers get there.
const FAILING_CALL: usize = 5;

fn run_with_a_failing_check(workers: usize) -> Result<(), String> {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut catalog = ubuntu::catalog();
    catalog.register(
        "local/probe",
        RequirementSpec::builder("X-PROBE")
            .title("A check that fails on one call")
            .severity(Severity::Low)
            .build(),
        move |_: &UnixHost| {
            if std::thread::current().name() != Some(RUN_THREAD) {
                let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
                assert_ne!(n, FAILING_CALL, "probe check failed on call {n}");
            }
            CheckStatus::Pass
        },
    );
    let mut host = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default().run(&catalog, &mut host);
    let mut fleet = vec![host; 64];
    let engine = SocEngine::new(
        &catalog,
        SocConfig {
            duration: 200,
            workers,
            shards: 16,
            seed: 3,
            ..SocConfig::default()
        },
    )
    .expect("valid config");
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| engine.run(&mut fleet)));
    match outcome {
        Ok(_) => Ok(()),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()),
    }
}

#[test]
fn a_panicking_check_fails_the_run_at_any_worker_count() {
    for workers in [2, 4] {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name(RUN_THREAD.to_string())
            .spawn(move || tx.send(run_with_a_failing_check(workers)))
            .expect("spawn the run's thread");
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("the run hung at {workers} workers"));
        let message = outcome.expect_err("the check's panic fails the run");
        assert!(
            message.contains(&format!("probe check failed on call {FAILING_CALL}")),
            "the run fails with the check's own panic, got {message:?}"
        );
    }
}
