//! `fleet_ops` and `fleet_forensics`: the event-driven SOC engine over
//! a fleet of owned hosts, each hardened by the remediation planner.

use std::collections::HashSet;
use std::path::Path;

use vdo_core::{Catalog, RemediationPlanner};
use vdo_host::UnixHost;
use vdo_soc::{
    DetectionKind, RemediationConfig, SocConfig, SocEngine, SocMetrics, SocReport, SocTracing,
};
use vdo_stigs::ubuntu;
use vdo_trace::{compact, DirWriter, Journal, JournalConfig, JournalDir, Severity};

use crate::metrics::Values;
use crate::spans::{SinkIntervals, Spans, TimingSink};
use crate::stats;
use crate::workload::{Rep, Traced, WORKERS};

/// The TEARS assertion E12/E19 arm: it turns on the per-host telemetry
/// stream, so the bus carries signal ticks as well as drift.
const LOCKOUT: &str = r#"ga "lockout": when failed_logins >= 3 then lockout == 1 within 2"#;

/// The segment header `SocTracing::persistent` writes; the traced pass
/// uses it too so both produce the same files.
const SOC_HEADER: &str = "vdo-journal v1\nsource=soc\n";

/// One fleet workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Ticks the engine simulates.
    pub ticks: u64,
    /// Record a Debug-floor columnar journal and query it afterwards.
    pub journal: bool,
}

/// A fleet ready to run.
struct Setup<'c> {
    fleet: Vec<UnixHost>,
    engine: SocEngine<'c, UnixHost>,
    tracing: SocTracing,
    sink: Option<SinkIntervals>,
}

/// Everything one pass over the workload produced.
struct Pass {
    rep: Rep,
    report: SocReport,
    sink: Option<SinkIntervals>,
    accepted: u64,
}

impl Fleet {
    fn soc_config(&self, seed: u64, workers: usize) -> SocConfig {
        SocConfig {
            duration: self.ticks,
            drift_rate: 0.02,
            workers,
            shards: 16,
            seed,
            tears_assertion: Some(LOCKOUT.into()),
            // Faults exercise the retry path; six retries make a dead
            // letter a one-in-a-million event, so no operation fails.
            remediation: RemediationConfig {
                fault_rate: 0.1,
                max_retries: 6,
                ..RemediationConfig::default()
            },
            ..SocConfig::default()
        }
    }

    /// One untraced repetition: the end-to-end measurement.
    ///
    /// # Errors
    /// When a correctness check fails or the journal cannot be written.
    pub fn rep(&self, seed: u64, work: &Path) -> Result<Rep, String> {
        Ok(self
            .pass(seed, WORKERS, work, &mut Spans::new(), false)?
            .rep)
    }

    /// The traced pass: timing sink around the journal, decode and
    /// compaction of the recorded directory, and a 1-worker re-run
    /// whose incident log must equal the 2-worker one.
    ///
    /// # Errors
    /// When a correctness check fails or the journal cannot be written.
    pub fn traced(&self, seed: u64, work: &Path) -> Result<Traced, String> {
        let mut spans = Spans::new();
        let pass = self.pass(seed, WORKERS, work, &mut spans, true)?;
        let soc_run = spans.last("soc.run").ok_or("soc.run span missing")?;
        if let Some(sink) = &pass.sink {
            let intervals = sink.lock().map_err(|_| "timing sink poisoned")?;
            spans.adopt("trace.sink.record", soc_run, &intervals);
        }
        let mut values = Values::new();
        if self.journal {
            let dir = work.join("journal");
            let events = spans
                .scope("trace.colfmt.decode", |_| JournalDir::open(&dir)?.events())
                .map_err(|e| format!("decode: {e}"))?;
            if events.len() as u64 != pass.accepted {
                return Err(format!(
                    "decoded {} events, journal accepted {}",
                    events.len(),
                    pass.accepted
                ));
            }
            drop(events);
            let compacted = work.join("compacted");
            let _ = std::fs::remove_dir_all(&compacted);
            let cstats = spans
                .scope("trace.colfmt.compact", |_| {
                    compact(
                        &dir,
                        &compacted,
                        Severity::Warn,
                        vdo_trace::colfmt::DEFAULT_EVENTS_PER_SEGMENT,
                    )
                })
                .map_err(|e| format!("compact: {e}"))?;
            let after = resolve_incidents(&compacted, &mut Spans::new())?;
            check_resolution("compacted journal", after, pass.report.incidents.len())?;
            values.insert("trace.colfmt.compact_ratio", cstats.ratio());
        }
        let one = self.pass(seed, 1, work, &mut Spans::new(), false)?;
        if one.rep.digest != pass.rep.digest {
            return Err("incident log differs between 1 and 2 workers".into());
        }

        let layers = spans.layers();
        let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
        let m = &pass.report.metrics;
        let run = layer("soc.run");
        let harden = layer("core.planner.harden");
        let sink = layer("trace.sink.record");
        let batch_busy_s = m.batch_micros.sum as f64 / 1e6;
        values.extend(pass.rep.outcomes.iter().map(|(k, v)| (*k, *v)));
        values.extend([
            ("soc.run.self_s", run.self_s),
            ("soc.events_published", m.events_published as f64),
            ("soc.events_deferred", m.events_deferred as f64),
            ("soc.events_processed", m.events_processed as f64),
            ("soc.batches", m.batches as f64),
            ("soc.steals", m.steals as f64),
            ("soc.checks_run", m.checks_run as f64),
            ("soc.remediations", m.remediations as f64),
            ("soc.retries", m.retries as f64),
            ("soc.dead_letters", m.dead_letters as f64),
            ("soc.max_queue_depth", m.max_queue_depth as f64),
            (
                "soc.batch_busy_share",
                batch_busy_s / (run.total_s * WORKERS as f64),
            ),
            (
                "soc.batch_p99_us",
                m.batch_micros.quantile(0.99).unwrap_or(0.0),
            ),
            (
                "soc.incidents_per_kcheck",
                1e3 * pass.report.incidents.len() as f64 / m.checks_run.max(1) as f64,
            ),
            (
                "core.planner.harden_us_per_host",
                1e6 * harden.total_s / harden.calls.max(1) as f64,
            ),
            ("trace.sink.records", sink.calls as f64),
            ("trace.sink.busy_s", sink.total_s),
            ("trace.sink.share", sink.total_s / run.total_s),
            ("trace.sink.p99_ns", sink.p99_us * 1e3),
        ]);
        if self.journal {
            let decode = layer("trace.colfmt.decode");
            values.extend([
                (
                    "trace.colfmt.decode_events_per_s",
                    pass.accepted as f64 / decode.total_s,
                ),
                (
                    "trace.colfmt.warn_scan_s",
                    layer("trace.colfmt.warn_scan").total_s,
                ),
                (
                    "trace.colfmt.compact_s",
                    layer("trace.colfmt.compact").total_s,
                ),
                ("forensic_query_s", layer("forensic.query").total_s),
            ]);
        }
        Ok(Traced {
            run_s: pass.rep.run_s,
            digest: pass.rep.digest,
            values,
            spans,
        })
    }

    /// Times one set-up — hardening and engine validation — and tears
    /// it down again.
    ///
    /// # Errors
    /// When the journal directory cannot be created.
    pub fn setup_s(&self, seed: u64, work: &Path) -> Result<f64, String> {
        let catalog = ubuntu::catalog();
        let mut spans = Spans::new();
        self.setup(&catalog, seed, WORKERS, work, &mut spans, false)?;
        Ok(spans.secs("setup"))
    }

    fn setup<'c>(
        &self,
        catalog: &'c Catalog<UnixHost>,
        seed: u64,
        workers: usize,
        work: &Path,
        spans: &mut Spans,
        traced: bool,
    ) -> Result<Setup<'c>, String> {
        // The journal directory is created outside the timed set-up:
        // file-system calls take a few milliseconds more now and then,
        // which would split set-up samples into two modes.
        let dir = work.join("journal");
        let _ = std::fs::remove_dir_all(&dir);
        let (tracing, sink) = match (self.journal, traced) {
            (false, _) => (SocTracing::disabled(), None),
            (true, false) => (
                SocTracing::persistent(&dir, seed, journal_config())
                    .map_err(|e| format!("journal dir: {e}"))?,
                None,
            ),
            (true, true) => {
                let writer =
                    DirWriter::create(&dir, SOC_HEADER).map_err(|e| format!("journal dir: {e}"))?;
                let (sink, intervals) = TimingSink::new(writer, spans);
                let journal = Journal::with_sink(journal_config(), Box::new(sink));
                (SocTracing::new(journal, seed), Some(intervals))
            }
        };
        spans.scope("setup", |spans| {
            let fleet = harden(catalog, self.hosts, spans);
            let engine = SocEngine::new(catalog, self.soc_config(seed, workers))
                .map_err(|e| format!("SOC config: {e}"))?;
            Ok(Setup {
                fleet,
                engine,
                tracing,
                sink,
            })
        })
    }

    fn pass(
        &self,
        seed: u64,
        workers: usize,
        work: &Path,
        spans: &mut Spans,
        traced: bool,
    ) -> Result<Pass, String> {
        let catalog = ubuntu::catalog();
        let dir = work.join("journal");
        let Setup {
            mut fleet,
            engine,
            tracing,
            sink,
        } = self.setup(&catalog, seed, workers, work, spans, traced)?;

        let metrics = SocMetrics::new();
        let report = spans.scope("soc.run", |_| {
            let report = engine.run_traced(&mut fleet, &metrics, &tracing);
            tracing.journal.sync();
            report
        });
        let accepted = tracing.journal.accepted();
        drop(tracing);
        let mut run_s = spans.secs("soc.run");

        let mut outcomes = Values::new();
        if self.journal {
            let found = spans.scope("forensic.query", |spans| resolve_incidents(&dir, spans))?;
            run_s += spans.secs("forensic.query");
            check_resolution("journal", found, report.incidents.len())?;
            let (bytes, on_disk) = JournalDir::open(&dir)
                .and_then(|d| Ok((d.total_bytes()?, d.event_count()?)))
                .map_err(|e| format!("journal index: {e}"))?;
            if on_disk != accepted {
                return Err(format!("{on_disk} events on disk, {accepted} accepted"));
            }
            outcomes.insert(
                "journal_bytes_per_event",
                bytes as f64 / accepted.max(1) as f64,
            );
        }

        let stig_incidents = report
            .incidents
            .iter()
            .filter(|i| i.kind == DetectionKind::Stig)
            .count();
        let ticks: Vec<f64> = report
            .incidents
            .iter()
            .filter_map(|i| i.resolved_at.map(|r| (r - i.introduced_at) as f64))
            .collect();
        let ticks = stats::sorted(&ticks);
        if report.incidents.is_empty() || ticks.is_empty() {
            return Err("the fleet must raise and remediate incidents".into());
        }
        outcomes.extend([
            ("exposure_pct", 100.0 * report.exposure(self.hosts)),
            ("remediate_p50_ticks", stats::percentile_sorted(&ticks, 0.5)),
            (
                "remediate_p99_ticks",
                stats::percentile_sorted(&ticks, 0.99),
            ),
            (
                "failed_share",
                report.dead_letters.len() as f64 / stig_incidents.max(1) as f64,
            ),
        ]);
        let rep = Rep {
            run_s,
            units: self.hosts as u64 * self.ticks,
            digest: stats::fnv1a(report.incident_log().as_bytes()),
            failed: report.dead_letters.len() as u64,
            outcomes,
        };
        Ok(Pass {
            rep,
            report,
            sink,
            accepted,
        })
    }
}

/// The Debug floor records the whole telemetry firehose; the in-memory
/// ring stays small because the directory is the durable copy.
fn journal_config() -> JournalConfig {
    JournalConfig {
        shards: 4,
        capacity_per_shard: 8_192,
        min_severity: Severity::Debug,
    }
}

/// Baseline Ubuntu hosts, each hardened to full compliance.
fn harden(catalog: &Catalog<UnixHost>, hosts: usize, spans: &mut Spans) -> Vec<UnixHost> {
    let planner = RemediationPlanner::default();
    (0..hosts)
        .map(|_| {
            let mut host = UnixHost::baseline_ubuntu_1804();
            spans.scope("core.planner.harden", |_| planner.run(catalog, &mut host));
            host
        })
        .collect()
}

/// Incidents found in a journal and how many resolved to a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolution {
    incidents: usize,
    resolved: usize,
}

/// The forensic query, answered from the journal directory alone:
/// reopen it, scan Warn+ for incidents, fetch the
/// `requirement.ingested` roots that precede them, and resolve every
/// incident's trace to a root.
fn resolve_incidents(dir: &Path, spans: &mut Spans) -> Result<Resolution, String> {
    let journal = JournalDir::open(dir).map_err(|e| format!("reopen journal: {e}"))?;
    let warn = spans
        .scope("trace.colfmt.warn_scan", |_| {
            journal.events_where(Some(Severity::Warn), None, None)
        })
        .map_err(|e| format!("warn scan: {e}"))?;
    let first_warn = warn.first().map(|(seq, _)| *seq);
    let roots: HashSet<u64> = spans
        .scope("trace.colfmt.root_fetch", |_| {
            journal.events_where(Some(Severity::Info), None, first_warn)
        })
        .map_err(|e| format!("root fetch: {e}"))?
        .iter()
        .filter(|(_, e)| e.name == "requirement.ingested")
        .filter_map(|(_, e)| e.trace.map(|t| t.trace_id.0))
        .collect();
    let incidents: Vec<Option<u64>> = warn
        .iter()
        .filter(|(_, e)| matches!(e.name, "soc.detection" | "soc.tears_violation"))
        .map(|(_, e)| e.trace.map(|t| t.trace_id.0))
        .collect();
    Ok(Resolution {
        incidents: incidents.len(),
        resolved: incidents
            .iter()
            .filter(|t| t.is_some_and(|id| roots.contains(&id)))
            .count(),
    })
}

fn check_resolution(what: &str, found: Resolution, expected: usize) -> Result<(), String> {
    if found.incidents != expected {
        return Err(format!(
            "{what}: {} incidents recorded, the engine reported {expected}",
            found.incidents
        ));
    }
    if found.resolved != found.incidents {
        return Err(format!(
            "{what}: {}/{} incidents resolve to a requirement root",
            found.resolved, found.incidents
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("journal dir")
            .map(|e| {
                let path = e.expect("dir entry").path();
                let bytes = std::fs::read(&path).expect("segment");
                (path.file_name().expect("file name").to_owned(), bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn the_timing_sink_leaves_segment_files_byte_identical() {
        let fleet = Fleet {
            hosts: 16,
            ticks: 40,
            journal: true,
        };
        let base = std::env::temp_dir().join(format!("ledger-sink-{}", std::process::id()));
        let (plain, timed) = (base.join("plain"), base.join("timed"));
        let run = |work: &Path, traced| {
            fleet
                .pass(5, WORKERS, work, &mut Spans::new(), traced)
                .unwrap_or_else(|e| panic!("{e}"))
        };
        let (a, b) = (run(&plain, false), run(&timed, true));
        let intervals = b.sink.expect("the traced pass times its sink");
        assert_eq!(
            intervals.lock().expect("intervals").len() as u64,
            b.accepted,
            "one interval per recorded event"
        );
        assert_eq!(a.accepted, b.accepted);
        let files = segment_files(&plain.join("journal"));
        assert!(!files.is_empty());
        assert!(
            files == segment_files(&timed.join("journal")),
            "segment files differ"
        );
        let _ = std::fs::remove_dir_all(&base);
    }
}
