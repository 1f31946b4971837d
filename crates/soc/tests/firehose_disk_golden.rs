//! Golden-file test for the journal the engine writes to disk at the
//! Debug floor: the per-host `soc.signal` and `soc.drift` firehose,
//! detections, remediation attempts with injected faults (retries and
//! resolutions) and SLO alerts, streamed by `SocTracing::persistent`
//! into columnar segment files. The in-memory ring is kept small enough
//! to drop most of the stream, so this pins what only the durable sink
//! sees; the ring-based goldens cannot. The digest of the segment files,
//! with the event and drop counts, must match
//! `tests/golden/firehose_disk_seed7.txt` at 1, 2 and 4 workers.
//! Regenerate after an intentional change with
//! `BLESS_GOLDEN=1 cargo test -p vdo-soc --test firehose_disk_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_soc::{RemediationConfig, SloPolicy, SocConfig, SocEngine, SocMetrics, SocTracing};
use vdo_stigs::ubuntu;
use vdo_trace::{BurnRateRule, JournalConfig, JournalDir, Severity, SloSignal};

/// A fresh directory for one run's segments.
fn scratch_dir(workers: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("vdo-soc-firehose-{}-{workers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the scenario on `workers` threads into a segment directory and
/// renders the pinned outputs.
fn disk_run(workers: usize) -> String {
    let catalog = ubuntu::catalog();
    let mut host = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default().run(&catalog, &mut host);
    let mut fleet = vec![host; 300];
    let engine = SocEngine::new(
        &catalog,
        SocConfig {
            duration: 80,
            drift_rate: 0.05,
            workers,
            shards: 8,
            seed: 7,
            tears_assertion: Some(
                r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#.into(),
            ),
            attack_rate: 0.05,
            remediation: RemediationConfig {
                max_retries: 3,
                backoff_base: 2,
                fault_rate: 0.3,
            },
            ..SocConfig::default()
        },
    )
    .expect("valid config");
    let dir = scratch_dir(workers);
    let ring = JournalConfig {
        shards: 2,
        capacity_per_shard: 512,
        min_severity: Severity::Debug,
    };
    let mut tracing = SocTracing::persistent(&dir, 7, ring).expect("journal directory");
    tracing.slo = Some(SloPolicy {
        rules: vec![BurnRateRule {
            name: "retry-burn".into(),
            signal: SloSignal::CounterRatio {
                bad: "soc.retries".into(),
                total: "soc.remediations".into(),
            },
            objective: 0.05,
            long_window: 12,
            short_window: 3,
            factor: 2.0,
        }],
        period: 2,
    });
    let report = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
    tracing.journal.sync();
    let accepted = tracing.journal.accepted();
    let dropped = tracing.journal.dropped();
    drop(tracing);

    let journal = JournalDir::open(&dir).expect("segments readable");
    let mut digest = FNV_OFFSET;
    for path in journal.segment_paths() {
        let name = path.file_name().expect("segment file name");
        digest = fnv1a(digest, name.as_encoded_bytes());
        digest = fnv1a(digest, &std::fs::read(path).expect("read segment"));
    }
    let on_disk = journal.event_count().expect("segment index");
    let segments = journal.segment_paths().len();
    std::fs::remove_dir_all(&dir).expect("remove the journal directory");
    assert_eq!(on_disk, accepted, "the sink keeps every accepted event");

    let m = &report.metrics;
    let mut out = String::new();
    for (name, value) in [
        ("incidents", report.incidents.len() as u64),
        ("drift_events", report.drift_events),
        ("retries", m.retries),
        ("dead_letters", m.dead_letters),
        ("slo_alerts", report.slo_alerts.len() as u64),
        ("journal_accepted", accepted),
        ("ring_dropped", dropped),
        ("segments", segments as u64),
    ] {
        writeln!(out, "{name} {value}").unwrap();
    }
    writeln!(out, "segment_digest {digest:016x}").unwrap();
    out
}

#[test]
fn on_disk_firehose_matches_golden_file_at_any_worker_count() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/firehose_disk_seed7.txt"
    );
    let single = disk_run(1);
    assert!(
        !single.contains("ring_dropped 0\n"),
        "the ring must drop events the sink keeps"
    );
    for busy in ["retries 0\n", "slo_alerts 0\n", "drift_events 0\n"] {
        assert!(!single.contains(busy), "the scenario must exercise {busy}");
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &single).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    for (workers, actual) in [(1, single), (2, disk_run(2)), (4, disk_run(4))] {
        assert_eq!(
            actual, expected,
            "on-disk journal at {workers} workers drifted from \
             tests/golden/firehose_disk_seed7.txt; re-bless with BLESS_GOLDEN=1 \
             if the change is intentional"
        );
    }
}
