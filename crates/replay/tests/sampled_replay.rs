//! Tail-based sampling, property-tested against the replay engine: a
//! journal recorded through [`vdo_trace::SamplingSink`] is smaller in
//! events but loses *nothing that matters*.
//!
//! Each case records one seeded SOC run twice — unsampled and sampled
//! — and asserts that (a) every traced incident still resolves to its
//! `requirement.ingested` root inside the sampled directory, (b) the
//! sampled directory replays through [`vdo_replay::Replayer`] with
//! byte-identical verdict digests at 1, 2, and 4 workers (sampling
//! keeps every `Warn`-and-above event, so the verdict surface is
//! lossless), and (c) the sampler's keep/drop decisions are a pure
//! function of the event stream: recording the same spec at 1, 2, and
//! 4 workers yields byte-identical sampled directories.

use std::collections::HashSet;
use std::path::PathBuf;

use proptest::prelude::*;

use vdo_replay::{record, record_sampled, Replayer, RunSpec};
use vdo_trace::colfmt::JournalDir;
use vdo_trace::SamplingPolicy;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vdo-sampled-prop-{}-{tag}", std::process::id()))
}

proptest! {
    /// Sampled recordings keep every incident chain, every verdict,
    /// and every decision — independent of worker count.
    #[test]
    fn sampled_journals_keep_roots_verdicts_and_decisions(
        seed in 0u64..10_000,
        hosts in 3usize..7,
        duration in 40u64..70,
        keep_1_in in 2u64..32,
    ) {
        let spec = RunSpec {
            seed,
            trace_seed: seed ^ 0x5eed,
            hosts,
            duration,
            drift_rate: 0.06,
            workers: 2,
            shards: 8,
            fault_rate: 0.4,
            checkpoint_period: 20,
        };
        let policy = SamplingPolicy {
            keep_1_in,
            seed: seed ^ 0xacce,
            ..SamplingPolicy::default()
        };
        let full_dir = tmp(&format!("full-{seed}-{duration}"));
        let samp_dir = tmp(&format!("samp-{seed}-{duration}"));
        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&samp_dir);

        let full = record(&spec, &full_dir).expect("unsampled recording succeeds");
        let (rec, stats) =
            record_sampled(&spec, &samp_dir, policy).expect("sampled recording succeeds");
        prop_assert_eq!(stats.kept() + stats.dropped(), stats.seen());
        let sampled = JournalDir::open(&samp_dir).expect("sampled dir reopens")
            .events().expect("sampled dir decodes");
        prop_assert_eq!(sampled.len() as u64, stats.kept());

        // (a) 100% incident root resolution inside the sampled cut.
        let roots: HashSet<u64> = sampled
            .iter()
            .filter(|(_, e)| e.name == "requirement.ingested")
            .filter_map(|(_, e)| e.trace.map(|t| t.trace_id.0))
            .collect();
        let traced: Vec<u64> = rec
            .report
            .incidents
            .iter()
            .filter_map(|i| i.trace.map(|t| t.trace_id.0))
            .collect();
        prop_assert!(!traced.is_empty(), "workload must raise traced incidents");
        for id in &traced {
            prop_assert!(roots.contains(id),
                "incident trace {id:#x} lost its requirement.ingested root");
        }

        // (b) the sampled directory replays with byte-identical
        // verdicts: its recorded verdict digests equal the unsampled
        // run's, and replay verification reproduces them at any
        // worker count.
        for (cp_s, cp_f) in rec.checkpoints.iter().zip(&full.checkpoints) {
            prop_assert_eq!(cp_s.verdict_digest, cp_f.verdict_digest,
                "sampling must not touch the verdict surface (tick {})", cp_s.tick);
        }
        let replayer = Replayer::open(&samp_dir).expect("sampled dir opens for replay");
        prop_assert_eq!(replayer.spec(), &spec, "spec rides in the sampled header");
        let last = replayer.checkpoints().len() - 1;
        for workers in [1usize, 2, 4] {
            let cp = replayer
                .replay_to_checkpoint(last, Some(workers))
                .expect("recorded checkpoint replays");
            prop_assert!(cp.verdict_match,
                "verdict digest diverged on {workers} worker(s)");
        }

        // (c) keep/drop decisions are worker-count-invariant: re-record
        // the sampled journal at other worker counts and compare the
        // full decoded streams.
        let baseline: Vec<(u64, String)> = sampled
            .iter()
            .map(|(s, e)| (*s, e.canonical_line()))
            .collect();
        for workers in [1usize, 4] {
            let wspec = RunSpec { workers, ..spec };
            let wdir = tmp(&format!("w{workers}-{seed}-{duration}"));
            let _ = std::fs::remove_dir_all(&wdir);
            let _ = record_sampled(&wspec, &wdir, policy)
                .expect("worker-variant recording succeeds");
            let other: Vec<(u64, String)> = JournalDir::open(&wdir).expect("variant reopens")
                .events().expect("variant decodes")
                .iter()
                .map(|(s, e)| (*s, e.canonical_line()))
                .collect();
            prop_assert_eq!(&baseline, &other,
                "keep/drop decisions changed between 2 and {} workers", workers);
            let _ = std::fs::remove_dir_all(&wdir);
        }

        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&samp_dir);
    }
}
