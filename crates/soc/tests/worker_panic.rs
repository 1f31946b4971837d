//! A catalogue check that panics on a pool worker, or a journal sink
//! that panics while the main thread flushes a tick's events during the
//! next advance pass, must fail the run with its own panic, not leave
//! the engine waiting on a pass that will never end.
//!
//! The run goes on a thread of its own, so a hang shows as a receive
//! timeout instead of a stuck test binary.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use vdo_core::{CheckStatus, RemediationPlanner, RequirementSpec, Severity};
use vdo_host::UnixHost;
use vdo_soc::{SocConfig, SocEngine, SocMetrics, SocTracing};
use vdo_stigs::ubuntu;
use vdo_trace::{Event, Journal, JournalConfig, JournalSink};

/// The run's thread; the pool's own workers are unnamed.
const RUN_THREAD: &str = "soc-run";

/// The check fails on its N-th call on a pool worker. Tick 0's baseline
/// audit alone calls it once per host (64 calls over 16 busy shards), and
/// drift re-checks follow on every tick, so the workers get there.
const FAILING_CALL: usize = 5;

/// Runs `run` on a thread named [`RUN_THREAD`] and returns the message
/// of the panic that failed it, or `None` if it finished.
fn on_run_thread(
    workers: usize,
    run: impl FnOnce() -> Result<(), String> + Send + 'static,
) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(RUN_THREAD.to_string())
        .spawn(move || tx.send(run()))
        .expect("spawn the run's thread");
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("the run hung at {workers} workers"))
        .err()
}

/// The panic message `f` raised, if it raised one.
fn catch_message(f: impl FnOnce()) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    })
}

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
    catch_message(|| {
        engine.run(&mut fleet);
    })
}

#[test]
fn a_panicking_check_fails_the_run_at_any_worker_count() {
    for workers in [2, 4] {
        let message = on_run_thread(workers, move || run_with_a_failing_check(workers))
            .expect("the check's panic fails the run");
        assert!(
            message.contains(&format!("probe check failed on call {FAILING_CALL}")),
            "the run fails with the check's own panic, got {message:?}"
        );
    }
}

/// Hosts in the traced fleet: each journals one `soc.signal` per tick.
const TRACED_HOSTS: usize = 64;

/// A sink that panics on its `fail_at`-th record, naming the thread that
/// recorded it.
struct FailingSink {
    records: usize,
    fail_at: usize,
}

impl JournalSink for FailingSink {
    fn record(&mut self, _seq: u64, _event: &Event) {
        self.records += 1;
        if self.records == self.fail_at {
            let thread = std::thread::current();
            panic!(
                "sink failed on record {} on thread {}",
                self.records,
                thread.name().unwrap_or("unnamed")
            );
        }
    }
}

fn run_with_a_failing_sink(workers: usize) -> Result<(), String> {
    let catalog = ubuntu::catalog();
    let mut host = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default().run(&catalog, &mut host);
    let mut fleet = vec![host; TRACED_HOSTS];
    let engine = SocEngine::new(
        &catalog,
        SocConfig {
            duration: 40,
            workers,
            shards: 16,
            seed: 3,
            tears_assertion: Some(
                r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
            ),
            ..SocConfig::default()
        },
    )
    .expect("valid config");
    // After the requirement roots (one per rule and the assertion) every
    // tick journals at least one signal per host, so this record belongs
    // to one of the first three ticks: its flush runs in a later tick's
    // advance pass, while the workers hold the shards.
    let fail_at = catalog.len() + 1 + 3 * TRACED_HOSTS;
    let sink = FailingSink {
        records: 0,
        fail_at,
    };
    let tracing = SocTracing::new(
        Journal::with_sink(JournalConfig::default(), Box::new(sink)),
        3,
    );
    catch_message(|| {
        engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
    })
}

#[test]
fn a_panicking_sink_fails_the_run_from_the_deferred_flush() {
    let workers = 2;
    let message = on_run_thread(workers, move || run_with_a_failing_sink(workers))
        .expect("the sink's panic fails the run");
    let fail_at = ubuntu::catalog().len() + 1 + 3 * TRACED_HOSTS;
    assert_eq!(
        message,
        format!("sink failed on record {fail_at} on thread {RUN_THREAD}"),
        "the run fails with the sink's own panic, raised on the main thread"
    );
}
