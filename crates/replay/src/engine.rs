//! Recording, checkpointing, and deterministic re-execution.
//!
//! # Why truncation-replay is exact
//!
//! Every source of randomness in the SOC engine (drift timing and
//! content, telemetry, fault rolls) is drawn on the main thread in
//! tick order from seeded generators, and every journal event is
//! emitted on the main thread. Events produced during tick `t`
//! therefore depend only on the simulation history up to `t` — so a
//! re-run of the same [`RunSpec`] truncated to `T` ticks emits *the
//! exact prefix* of the full run's accepted event stream (same events,
//! same order, same seqs). "Checkpoint + roll-forward" then needs no
//! serialized engine state at all: the genesis state is the
//! checkpoint (derivable from the spec alone), and rolling forward is
//! re-executing `T` ticks. A [`Checkpoint`] stores only the *digests*
//! of the causal cut at its tick, so verification is cheap.
//!
//! Worker counts are orthogonal: the engine's documented contract
//! (property-tested here and in `vdo-soc`) is that incident logs and
//! journal multisets are byte-identical at any worker count, so a run
//! recorded with 4 workers replays bit-exactly with 1 or 2.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use vdo_core::RemediationPlanner;
use vdo_host::UnixHost;
use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_soc::{SocEngine, SocMetrics, SocReport, SocTracing};
use vdo_stigs::ubuntu;
use vdo_trace::colfmt::{DirWriter, JournalDir};
use vdo_trace::{
    Event, Journal, JournalConfig, MemorySink, SamplingPolicy, SamplingSink, SamplingStats,
    Severity,
};

use crate::spec::RunSpec;

/// Version line leading `checkpoints.txt`.
pub const CHECKPOINTS_VERSION: &str = "vdo-replay-checkpoints v1";

fn digest_sorted_lines(mut lines: Vec<String>) -> u64 {
    lines.sort_unstable();
    let mut h = FNV_OFFSET;
    for line in &lines {
        h = fnv1a(h, line.as_bytes());
        h = fnv1a(h, b"\n");
    }
    h
}

/// Order-independent digest of the causal cut at `upto_tick`: the
/// sorted canonical lines of every event with `at < upto_tick`.
#[must_use]
pub fn journal_digest_of(events: &[(u64, Event)], upto_tick: u64) -> u64 {
    digest_sorted_lines(
        events
            .iter()
            .filter(|(_, e)| e.at < upto_tick)
            .map(|(_, e)| e.canonical_line())
            .collect(),
    )
}

/// The verdict log of the cut at `upto_tick`: every `Warn`-and-above
/// event (detections, TEARS violations, retries, dead letters, SLO
/// alerts) as sorted canonical lines joined by `\n`. Two runs whose
/// verdict logs are equal as strings behaved identically on every
/// security-relevant outcome.
#[must_use]
pub fn verdict_log_of(events: &[(u64, Event)], upto_tick: u64) -> String {
    let mut lines: Vec<String> = events
        .iter()
        .filter(|(_, e)| e.at < upto_tick && e.severity >= Severity::Warn)
        .map(|(_, e)| e.canonical_line())
        .collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// FNV digest of [`verdict_log_of`]'s bytes — equal digests ⇔
/// byte-identical verdict logs.
#[must_use]
pub fn verdict_digest_of(events: &[(u64, Event)], upto_tick: u64) -> u64 {
    fnv1a(FNV_OFFSET, verdict_log_of(events, upto_tick).as_bytes())
}

/// Ring sizing for recording/replay journals: the sink (disk or
/// memory) is the durable copy, so the ring is kept minimal.
fn capture_config(spec: &RunSpec) -> JournalConfig {
    let _ = spec;
    JournalConfig {
        shards: 1,
        capacity_per_shard: 1,
        min_severity: Severity::Debug,
    }
}

/// Builds the spec's fleet and runs the SOC engine against `journal`,
/// optionally with a worker override and/or truncated duration.
///
/// # Errors
/// `InvalidInput` when the spec, override or duration maps to a SOC
/// configuration that [`SocConfig::validate`](vdo_soc::SocConfig::validate)
/// rejects.
fn run_soc(
    spec: &RunSpec,
    workers: Option<usize>,
    duration: Option<u64>,
    journal: &Journal,
) -> io::Result<(SocReport, Vec<UnixHost>)> {
    let catalog = ubuntu::shared_catalog();
    let engine = SocEngine::new(catalog, spec.soc_config(workers, duration)).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid replay config: {e}"),
        )
    })?;
    let planner = RemediationPlanner::default();
    let mut fleet: Vec<UnixHost> = (0..spec.hosts)
        .map(|_| {
            let mut h = UnixHost::baseline_ubuntu_1804();
            planner.run(catalog, &mut h);
            h
        })
        .collect();
    let tracing = SocTracing::new(journal.clone(), spec.trace_seed);
    let report = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
    Ok((report, fleet))
}

/// One verified cut of the recorded run: the causal cut at `tick` is
/// the multiset of journal events with `at < tick`, summarized by two
/// digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// The cut's tick boundary.
    pub tick: u64,
    /// Events in the cut.
    pub events: u64,
    /// [`journal_digest_of`] the cut.
    pub journal_digest: u64,
    /// [`verdict_digest_of`] the cut.
    pub verdict_digest: u64,
}

/// What [`record`] produced: the live report plus the journal
/// directory and its checkpoint schedule.
#[derive(Debug)]
pub struct Recording {
    /// The spec that was run.
    pub spec: RunSpec,
    /// The live run's report.
    pub report: SocReport,
    /// Checkpoints cut every `spec.checkpoint_period` ticks.
    pub checkpoints: Vec<Checkpoint>,
    /// Where the journal was written.
    pub dir: PathBuf,
}

/// Runs `spec` live with a columnar [`DirWriter`] sink under `dir`,
/// then derives and stores the checkpoint schedule
/// (`checkpoints.txt`). The spec itself rides in every segment header,
/// so the directory is self-describing: [`Replayer::open`] needs
/// nothing else.
pub fn record(spec: &RunSpec, dir: &Path) -> io::Result<Recording> {
    spec.validate()?;
    let sink = DirWriter::create(dir, &spec.to_header())?;
    let journal = Journal::with_sink(capture_config(spec), Box::new(sink));
    let (report, _fleet) = run_soc(spec, None, None, &journal)?;
    journal.sync();
    let checkpoints = derive_and_store_checkpoints(spec, dir)?;
    Ok(Recording {
        spec: *spec,
        report,
        checkpoints,
        dir: dir.to_path_buf(),
    })
}

/// Digests the on-disk event stream at every checkpoint tick and
/// writes `checkpoints.txt` beside the segments.
fn derive_and_store_checkpoints(spec: &RunSpec, dir: &Path) -> io::Result<Vec<Checkpoint>> {
    let events = JournalDir::open(dir)?.events()?;
    let checkpoints: Vec<Checkpoint> = spec
        .checkpoint_ticks()
        .into_iter()
        .map(|tick| Checkpoint {
            tick,
            events: events.iter().filter(|(_, e)| e.at < tick).count() as u64,
            journal_digest: journal_digest_of(&events, tick),
            verdict_digest: verdict_digest_of(&events, tick),
        })
        .collect();
    let mut text = format!("{CHECKPOINTS_VERSION}\n");
    for cp in &checkpoints {
        use std::fmt::Write as _;
        let _ = writeln!(
            text,
            "tick={} events={} journal={:016x} verdict={:016x}",
            cp.tick, cp.events, cp.journal_digest, cp.verdict_digest
        );
    }
    fs::write(dir.join("checkpoints.txt"), text)?;
    Ok(checkpoints)
}

/// Like [`record`], but the columnar sink rides behind an adaptive
/// tail-based [`SamplingSink`]: quiet traces are head-sampled at
/// `policy.keep_1_in`, anomalous causal chains (Warn-and-above,
/// slow spans, trace roots) are kept whole. Because the sampler always
/// keeps every `Warn`-and-above event, the sampled directory's verdict
/// digests — and therefore [`Replayer`] checkpoint verification, which
/// replays the *spec*, not the events — are identical to an unsampled
/// recording's; only the all-severity `journal_digest` differs.
pub fn record_sampled(
    spec: &RunSpec,
    dir: &Path,
    policy: SamplingPolicy,
) -> io::Result<(Recording, SamplingStats)> {
    spec.validate()?;
    let sink = SamplingSink::new(DirWriter::create(dir, &spec.to_header())?, policy);
    let stats = sink.stats();
    let journal = Journal::with_sink(capture_config(spec), Box::new(sink));
    let (report, _fleet) = run_soc(spec, None, None, &journal)?;
    journal.sync();
    let checkpoints = derive_and_store_checkpoints(spec, dir)?;
    Ok((
        Recording {
            spec: *spec,
            report,
            checkpoints,
            dir: dir.to_path_buf(),
        },
        stats,
    ))
}

fn parse_checkpoints(text: &str) -> io::Result<Vec<Checkpoint>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut lines = text.lines();
    let version = lines.next().unwrap_or("");
    if version != CHECKPOINTS_VERSION {
        return Err(bad(format!("unsupported checkpoints version {version:?}")));
    }
    let mut out = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut cp = Checkpoint {
            tick: 0,
            events: 0,
            journal_digest: 0,
            verdict_digest: 0,
        };
        let mut seen: Vec<&str> = Vec::with_capacity(4);
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed checkpoint token {token:?}")))?;
            let err = |_| bad(format!("malformed checkpoint value {token:?}"));
            match key {
                "tick" => cp.tick = value.parse().map_err(err)?,
                "events" => cp.events = value.parse().map_err(err)?,
                "journal" => cp.journal_digest = u64::from_str_radix(value, 16).map_err(err)?,
                "verdict" => cp.verdict_digest = u64::from_str_radix(value, 16).map_err(err)?,
                _ => continue,
            }
            if seen.contains(&key) {
                return Err(bad(format!("checkpoint key {key} repeated in {line:?}")));
            }
            seen.push(key);
        }
        if seen.len() < 4 {
            return Err(bad(format!("checkpoint line {line:?} lacks a key")));
        }
        out.push(cp);
    }
    Ok(out)
}

/// The reconstructed state a replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The tick boundary replayed to (state *after* ticks
    /// `0..tick` executed).
    pub tick: u64,
    /// The truncated run's report (incidents, dead letters, metrics).
    pub report: SocReport,
    /// Fleet state at the boundary: every host's full configuration.
    pub fleet: Vec<UnixHost>,
    /// The replayed journal cut: every accepted event with
    /// `at < tick`, with its seq.
    pub events: Vec<(u64, Event)>,
}

impl ReplayOutcome {
    /// [`journal_digest_of`] the replayed cut.
    #[must_use]
    pub fn journal_digest(&self) -> u64 {
        journal_digest_of(&self.events, self.tick)
    }

    /// [`verdict_log_of`] the replayed cut.
    #[must_use]
    pub fn verdict_log(&self) -> String {
        verdict_log_of(&self.events, self.tick)
    }

    /// [`verdict_digest_of`] the replayed cut.
    #[must_use]
    pub fn verdict_digest(&self) -> u64 {
        verdict_digest_of(&self.events, self.tick)
    }

    /// Order-sensitive digest over every host's full debug rendering —
    /// two replays with equal fingerprints reconstructed bit-identical
    /// fleet state.
    #[must_use]
    pub fn fleet_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for host in &self.fleet {
            h = fnv1a(h, format!("{host:?}").as_bytes());
            h = fnv1a(h, b"\n");
        }
        h
    }
}

/// A checkpoint replay plus its verification verdicts.
#[derive(Debug)]
pub struct CheckpointReplay {
    /// The checkpoint that was targeted.
    pub checkpoint: Checkpoint,
    /// The reconstructed state.
    pub outcome: ReplayOutcome,
    /// `true` when the replayed journal cut digests identically.
    pub journal_match: bool,
    /// `true` when the replayed verdict log digests identically.
    pub verdict_match: bool,
}

/// A counterfactual re-run of the recorded scenario under a modified
/// spec.
#[derive(Debug)]
pub struct WhatIf {
    /// The modified spec the variant ran under.
    pub variant_spec: RunSpec,
    /// The recorded scenario replayed as-is.
    pub baseline: SocReport,
    /// The scenario under the modified spec.
    pub variant: SocReport,
}

/// Incidents detected in the window `[start, end)` of a report.
#[must_use]
pub fn incidents_in_window(report: &SocReport, start: u64, end: u64) -> usize {
    report
        .incidents
        .iter()
        .filter(|i| i.detected_at >= start && i.detected_at < end)
        .count()
}

/// Re-executes a recorded run from its journal directory.
///
/// Open is cheap: only the segment header (the [`RunSpec`]) and the
/// checkpoint schedule are read. Each `replay_*` call then re-runs the
/// deterministic simulation up to the requested boundary — see the
/// module docs for why that reconstructs the live run bit-exactly.
#[derive(Debug)]
pub struct Replayer {
    spec: RunSpec,
    dir: PathBuf,
    checkpoints: Vec<Checkpoint>,
}

impl Replayer {
    /// Opens a journal directory written by [`record`] (or a
    /// [`vdo_trace::colfmt::compact`]ed copy of one — compaction
    /// preserves the header; the checkpoint file is optional).
    pub fn open(dir: &Path) -> io::Result<Self> {
        let disk = JournalDir::open(dir)?;
        let spec = RunSpec::from_header(&disk.header()?)?;
        let checkpoints = match fs::read_to_string(dir.join("checkpoints.txt")) {
            Ok(text) => parse_checkpoints(&text)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(Replayer {
            spec,
            dir: dir.to_path_buf(),
            checkpoints,
        })
    }

    /// The recorded run's spec.
    #[must_use]
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The recorded checkpoint schedule (empty when the directory
    /// carries no `checkpoints.txt`).
    #[must_use]
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Reconstructs fleet + SOC state at the causal cut `tick`
    /// (state after ticks `0..tick`), optionally on a different
    /// worker count than the live run.
    ///
    /// # Errors
    /// `InvalidInput` when `workers` is `Some(0)`.
    pub fn replay_to_tick(&self, tick: u64, workers: Option<usize>) -> io::Result<ReplayOutcome> {
        let sink = MemorySink::new();
        let entries = sink.entries();
        let journal = Journal::with_sink(capture_config(&self.spec), Box::new(sink));
        let (report, fleet) = run_soc(&self.spec, workers, Some(tick), &journal)?;
        let mut events = std::mem::take(&mut *entries.lock().expect("capture sink poisoned"));
        events.retain(|(_, e)| e.at < tick);
        Ok(ReplayOutcome {
            tick,
            report,
            fleet,
            events,
        })
    }

    /// Replays to checkpoint `index` and verifies the replayed cut
    /// against the recorded digests.
    ///
    /// # Errors
    /// `InvalidInput` when `index` is outside
    /// [`checkpoints`](Replayer::checkpoints) or `workers` is `Some(0)`.
    pub fn replay_to_checkpoint(
        &self,
        index: usize,
        workers: Option<usize>,
    ) -> io::Result<CheckpointReplay> {
        let checkpoint = *self.checkpoints.get(index).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint {index} out of range ({} recorded)",
                    self.checkpoints.len()
                ),
            )
        })?;
        let outcome = self.replay_to_tick(checkpoint.tick, workers)?;
        Ok(CheckpointReplay {
            checkpoint,
            journal_match: outcome.journal_digest() == checkpoint.journal_digest,
            verdict_match: outcome.verdict_digest() == checkpoint.verdict_digest,
            outcome,
        })
    }

    /// Reconstructs state at journal sequence number `seq`: the
    /// block index locates the event's tick `t` without scanning, and
    /// the replay rolls forward to the cut *after* tick `t` (the
    /// earliest boundary at which the event has happened).
    pub fn replay_to_seq(&self, seq: u64, workers: Option<usize>) -> io::Result<ReplayOutcome> {
        let tick = JournalDir::open(&self.dir)?
            .tick_for_seq(seq)?
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("seq {seq} is not in the journal"),
                )
            })?;
        self.replay_to_tick(tick + 1, workers)
    }

    /// Counterfactual: replays the recorded scenario once as-is and
    /// once under `mutate`-d spec (e.g. halved drift, injected
    /// remediation faults, another fleet size), returning both reports
    /// for comparison.
    ///
    /// # Errors
    /// `InvalidInput` when the mutated spec is not runnable (say, zero
    /// workers or a drift rate above 1).
    pub fn what_if(&self, mutate: impl FnOnce(&mut RunSpec)) -> io::Result<WhatIf> {
        let mut variant_spec = self.spec;
        mutate(&mut variant_spec);
        let (variant, _fleet) = run_soc(&variant_spec, None, None, &Journal::disabled())?;
        let baseline = self.replay_to_tick(self.spec.duration, None)?.report;
        Ok(WhatIf {
            variant_spec,
            baseline,
            variant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdo-replay-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec() -> RunSpec {
        RunSpec {
            seed: 23,
            trace_seed: 5,
            hosts: 6,
            duration: 80,
            drift_rate: 0.05,
            workers: 2,
            shards: 8,
            fault_rate: 0.3,
            checkpoint_period: 20,
        }
    }

    #[test]
    fn checkpoint_lines_need_every_key_exactly_once() {
        let head = format!("{CHECKPOINTS_VERSION}\n");
        let good = "tick=20 events=5 journal=00000000000000aa verdict=00000000000000bb";
        let parsed = parse_checkpoints(&format!("{head}{good} future=1\n")).unwrap();
        assert_eq!(parsed[0].tick, 20);
        assert_eq!(parsed[0].verdict_digest, 0xbb);
        for line in [
            "events=5 journal=00000000000000aa verdict=00000000000000bb",
            "tick=20 events=5 journal=00000000000000aa",
            "tick=20 tick=40 events=5 journal=00000000000000aa verdict=00000000000000bb",
            "tick=20 events=5 journal=aa verdict=bb journal=cc",
        ] {
            let err = parse_checkpoints(&format!("{head}{line}\n")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}");
        }
    }

    #[test]
    fn invalid_specs_are_refused_before_recording() {
        let dir = tmp("invalid");
        let spec = RunSpec {
            workers: 0,
            ..small_spec()
        };
        let err = record(&spec, &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!dir.exists(), "nothing is written for a refused spec");
    }

    #[test]
    fn record_then_open_recovers_the_spec_and_checkpoints() {
        let dir = tmp("open");
        let spec = small_spec();
        let rec = record(&spec, &dir).unwrap();
        assert_eq!(rec.checkpoints.len(), 4);
        assert_eq!(rec.checkpoints.last().unwrap().tick, 80);
        let rp = Replayer::open(&dir).unwrap();
        assert_eq!(rp.spec(), &spec);
        assert_eq!(rp.checkpoints(), rec.checkpoints.as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_replay_reproduces_the_live_run_byte_identically() {
        let dir = tmp("full");
        let spec = small_spec();
        let rec = record(&spec, &dir).unwrap();
        assert!(
            !rec.report.incidents.is_empty(),
            "workload must raise incidents for the test to mean anything"
        );
        let rp = Replayer::open(&dir).unwrap();
        let outcome = rp.replay_to_tick(spec.duration, None).unwrap();
        assert_eq!(
            outcome.report.incident_log(),
            rec.report.incident_log(),
            "replayed incident log must be byte-identical"
        );
        let disk = JournalDir::open(&dir).unwrap().events().unwrap();
        assert_eq!(
            outcome.verdict_log(),
            verdict_log_of(&disk, spec.duration),
            "replayed verdict log must be byte-identical to the persisted one"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_to_seq_lands_just_after_the_events_tick() {
        let dir = tmp("seq");
        let spec = small_spec();
        record(&spec, &dir).unwrap();
        let disk = JournalDir::open(&dir).unwrap().events().unwrap();
        let (seq, event) = disk[disk.len() / 2].clone();
        let rp = Replayer::open(&dir).unwrap();
        let outcome = rp.replay_to_seq(seq, None).unwrap();
        assert_eq!(outcome.tick, event.at + 1);
        assert!(
            outcome.events.iter().any(|(s, e)| *s == seq && e == &event),
            "the target event is inside the reconstructed cut"
        );
        assert!(rp.replay_to_seq(u64::MAX, None).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn what_if_reruns_the_window_under_modified_config() {
        let dir = tmp("whatif");
        let spec = small_spec();
        record(&spec, &dir).unwrap();
        let rp = Replayer::open(&dir).unwrap();
        let wi = rp.what_if(|s| s.drift_rate = 0.0).unwrap();
        assert!(wi.baseline.drift_events > 0, "baseline scenario drifts");
        assert_eq!(wi.variant.drift_events, 0, "counterfactual removed drift");
        assert!(incidents_in_window(&wi.variant, 0, spec.duration) == 0);
        assert!(incidents_in_window(&wi.baseline, 0, spec.duration) >= wi.baseline.incidents.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrunnable_replays_are_invalid_input_not_panics() {
        let dir = tmp("unrunnable");
        record(&small_spec(), &dir).unwrap();
        let rp = Replayer::open(&dir).unwrap();
        let errors = [
            rp.what_if(|s| s.workers = 0).err(),
            rp.what_if(|s| s.drift_rate = 2.0).err(),
            rp.replay_to_tick(10, Some(0)).err(),
            rp.replay_to_checkpoint(rp.checkpoints().len(), None).err(),
        ];
        for (i, err) in errors.into_iter().enumerate() {
            let err = err.unwrap_or_else(|| panic!("input {i} must be refused"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "input {i}: {err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_journals_still_replay() {
        let dir = tmp("compact");
        let out = tmp("compact-out");
        let spec = small_spec();
        let rec = record(&spec, &dir).unwrap();
        let stats = vdo_trace::colfmt::compact(&dir, &out, Severity::Warn, 100_000).unwrap();
        assert!(stats.events_out < stats.events_in);
        let rp = Replayer::open(&out).unwrap();
        assert_eq!(rp.spec(), &spec, "spec survives compaction in the header");
        assert!(rp.checkpoints().is_empty(), "checkpoint file is not copied");
        let outcome = rp.replay_to_tick(spec.duration, None).unwrap();
        assert_eq!(
            outcome.verdict_digest(),
            rec.checkpoints.last().unwrap().verdict_digest,
            "replay from a compacted dir still reproduces the live verdicts"
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&out);
    }

    /// The `checkpoints.txt` of one small recording, recorded once.
    fn recorded_checkpoints() -> &'static [u8] {
        static TEXT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| {
            let dir = tmp("fuzz");
            record(&small_spec(), &dir).unwrap();
            let text = fs::read(dir.join("checkpoints.txt")).unwrap();
            let _ = fs::remove_dir_all(&dir);
            text
        })
    }

    /// Feeds every prefix of `bytes` to both parsers: neither may
    /// panic, and a spec the header parser accepts is runnable.
    fn parse_every_prefix(bytes: &[u8]) {
        for end in 0..=bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..end]);
            if let Ok(spec) = RunSpec::from_header(&text) {
                assert!(
                    spec.validate().is_ok(),
                    "accepted an unrunnable spec: {text:?}"
                );
            }
            let _ = parse_checkpoints(&text);
        }
    }

    proptest::proptest! {
        /// A spec header or a recorded checkpoint file, with one bit
        /// flipped and then cut at every byte, parses to a value or an
        /// error, never a panic.
        #[test]
        fn parsers_survive_truncation_and_bit_flips(
            header in proptest::prop::bool::ANY,
            at in 0usize..4096,
            bit in 0u32..8,
        ) {
            let mut bytes = if header {
                small_spec().to_header().into_bytes()
            } else {
                recorded_checkpoints().to_vec()
            };
            parse_every_prefix(&bytes);
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            parse_every_prefix(&bytes);
        }
    }
}
