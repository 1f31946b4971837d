//! The tentpole guarantee, property-tested: a recorded run replays
//! *byte-identically* — at every checkpoint, at any worker count.
//!
//! Each case records one seeded SOC run into a columnar journal
//! directory, then replays every checkpoint at 1, 2, and 4 workers and
//! asserts that (a) the replayed journal cut digests identically to
//! the recorded checkpoint, (b) the replayed verdict log is
//! byte-identical, and (c) all worker counts reconstruct bit-identical
//! fleet state. The full-duration replay must also reproduce the live
//! run's incident log as an exact string.

use std::path::PathBuf;

use proptest::prelude::*;

use vdo_replay::{record, verdict_log_of, Replayer, RunSpec};
use vdo_trace::colfmt::JournalDir;

fn tmp(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("vdo-replay-prop-{}-{tag}", std::process::id()))
}

proptest! {
    /// Replay == live, everywhere it can be observed.
    #[test]
    fn replay_matches_live_at_every_checkpoint_and_worker_count(
        seed in 0u64..10_000,
        hosts in 3usize..7,
        duration in 30u64..70,
        checkpoint_period in 10u64..25,
        faulty in proptest::prop::bool::ANY,
    ) {
        let spec = RunSpec {
            seed,
            trace_seed: seed ^ 0x5eed,
            hosts,
            duration,
            drift_rate: 0.06,
            workers: 2,
            shards: 8,
            fault_rate: if faulty { 0.5 } else { 0.0 },
            checkpoint_period,
        };
        let dir = tmp(seed ^ (duration << 16));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = record(&spec, &dir).expect("recording succeeds");
        let replayer = Replayer::open(&dir).expect("journal dir reopens");
        prop_assert_eq!(replayer.spec(), &spec);

        for index in 0..replayer.checkpoints().len() {
            let mut fingerprints = Vec::new();
            for workers in [1usize, 2, 4] {
                let cp = replayer
                    .replay_to_checkpoint(index, Some(workers))
                    .expect("recorded checkpoint replays");
                prop_assert!(cp.journal_match,
                    "journal digest diverged at checkpoint {} with {} workers", index, workers);
                prop_assert!(cp.verdict_match,
                    "verdict digest diverged at checkpoint {} with {} workers", index, workers);
                fingerprints.push((cp.outcome.fleet_fingerprint(), cp.outcome.verdict_log()));
            }
            prop_assert_eq!(&fingerprints[0], &fingerprints[1],
                "1-worker and 2-worker replays must reconstruct identical state");
            prop_assert_eq!(&fingerprints[1], &fingerprints[2],
                "2-worker and 4-worker replays must reconstruct identical state");
        }

        // Full-duration replay reproduces the live artifacts byte-for-byte.
        let full = replayer
            .replay_to_tick(spec.duration, Some(1))
            .expect("full-duration replay runs");
        prop_assert_eq!(full.report.incident_log(), rec.report.incident_log(),
            "replayed incident log must be byte-identical to the live run");
        let disk = JournalDir::open(&dir).expect("reopen").events().expect("decode");
        prop_assert_eq!(full.verdict_log(), verdict_log_of(&disk, spec.duration),
            "replayed verdict log must be byte-identical to the persisted journal");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
