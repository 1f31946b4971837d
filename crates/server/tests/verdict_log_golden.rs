//! Golden-file test for the service's per-tenant verdict logs: a small
//! seeded `Server::run_load` over three tenants with a mix of
//! requirement submissions, gated commits, incident queries and ops
//! bursts (drift, detection and remediation on each tenant's production
//! host). Every tenant's verdict log and the order of the traced run's
//! journal events must match `tests/golden/verdict_logs_seed21.txt`
//! byte for byte at 1 and 2 workers. Regenerate after an intentional change with
//! `BLESS_GOLDEN=1 cargo test -p vdo-server --test verdict_log_golden`.

use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_server::{
    LoadConfig, LoadGen, MixWeights, Server, ServerConfig, ServerMetrics, ServerTracing,
    TenantConfig,
};

/// Runs the seeded load on `workers` threads and renders every
/// tenant's verdict log under a header line, then the journal order.
fn verdict_logs(workers: usize) -> String {
    let mut server = Server::new(ServerConfig {
        capacity_per_round: 16,
        quantum: 2,
        workers,
        retain_responses: false,
    });
    for t in 0..3u64 {
        server.register_tenant(
            &TenantConfig::new(format!("tenant-{t}"))
                .with_seed(21 + t)
                .with_weight(1 + t)
                .with_queue_capacity(48),
        );
    }
    let mut gen = LoadGen::new(LoadConfig {
        total_requests: 360,
        base_rate: 12,
        burst_period: 5,
        burst_size: 20,
        tenant_weights: vec![1, 2, 3],
        mix: MixWeights {
            submit: 20,
            push: 35,
            query: 20,
            ops: 25,
        },
        seed: 21,
    });
    let tracing = ServerTracing::new(vdo_trace::Journal::new(), 21);
    let report = server.run_load(&mut gen, &ServerMetrics::new(), &tracing);
    let mut out = String::new();
    for (t, log) in report.verdict_logs.iter().enumerate() {
        out.push_str(&format!("== tenant-{t}\n{log}"));
    }
    out.push_str(&format!(
        "journal_order {}\n",
        journal_order(&tracing.journal)
    ));
    out
}

/// FNV-1a over the journal's canonical lines in seq order: unlike the
/// order-free [`vdo_trace::JournalSnapshot::fingerprint`], it changes
/// when the server emits the same events in another order.
fn journal_order(journal: &vdo_trace::Journal) -> String {
    let digest = journal.snapshot().events.iter().fold(FNV_OFFSET, |h, e| {
        fnv1a(fnv1a(h, e.canonical_line().as_bytes()), b"\n")
    });
    format!("{digest:016x}")
}

#[test]
fn verdict_logs_match_golden_file_at_one_and_two_workers() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/verdict_logs_seed21.txt"
    );
    let single = verdict_logs(1);
    for kind in [
        "run_ops",
        "push_commit",
        "submit_requirement",
        "query_incident",
    ] {
        assert!(
            single.contains(kind),
            "the mix must exercise {kind}:\n{single}"
        );
    }
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap())
            .expect("create golden dir");
        std::fs::write(path, &single).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    for (workers, actual) in [(1, single), (2, verdict_logs(2))] {
        assert_eq!(
            actual, expected,
            "verdict logs at {workers} workers drifted from \
             tests/golden/verdict_logs_seed21.txt; re-bless with BLESS_GOLDEN=1 \
             if the change is intentional"
        );
    }
}
