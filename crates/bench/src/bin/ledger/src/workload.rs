//! The four workloads, their sizes, and what one repetition reports.

use std::path::Path;

use vdo_server::MixWeights;

use crate::fleet::Fleet;
use crate::metrics::{self, Values};
use crate::service::Service;
use crate::spans::Spans;

/// Worker threads for the SOC pool and the server pool (the container
/// has two cores).
pub const WORKERS: usize = 2;

/// One untraced repetition of a workload: set up, run, check.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Wall time of the measured work.
    pub run_s: f64,
    /// Work completed: host-ticks (fleet) or requests (service).
    pub units: u64,
    /// Digest of the deterministic output log (incidents or verdicts).
    pub digest: u64,
    /// Operations that failed: dead-lettered remediations or rejected
    /// requests.
    pub failed: u64,
    /// Outcome metrics; equal for equal seeds.
    pub outcomes: Values,
}

impl Rep {
    /// The repetition as one line, `run_s units failed digest` then
    /// `name=value` per outcome, for [`Rep::parse`] in another process.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{} {} {} {}",
            self.run_s, self.units, self.failed, self.digest
        );
        for (name, value) in &self.outcomes {
            line.push_str(&format!(" {name}={value}"));
        }
        line
    }

    /// Reads a line [`Rep::to_line`] wrote. Values round-trip exactly.
    ///
    /// # Errors
    /// When the line is malformed or names an unknown outcome.
    pub fn parse(line: &str) -> Result<Rep, String> {
        let bad = || format!("malformed repetition line {line:?}");
        let mut tokens = line.split_whitespace();
        let mut next = || tokens.next().ok_or_else(bad);
        let run_s = next()?.parse().map_err(|_| bad())?;
        let units = next()?.parse().map_err(|_| bad())?;
        let failed = next()?.parse().map_err(|_| bad())?;
        let digest = next()?.parse().map_err(|_| bad())?;
        let outcomes = tokens
            .map(|t| {
                let (name, value) = t.split_once('=').ok_or_else(bad)?;
                let def = metrics::find(name).ok_or_else(bad)?;
                Ok((def.name, value.parse().map_err(|_| bad())?))
            })
            .collect::<Result<Values, String>>()?;
        Ok(Rep {
            run_s,
            units,
            digest,
            failed,
            outcomes,
        })
    }
}

/// The traced pass of a workload.
#[derive(Debug)]
pub struct Traced {
    /// Wall time of the measured work, as `Rep::run_s`.
    pub run_s: f64,
    /// Digest of the deterministic output log.
    pub digest: u64,
    /// Outcome and per-layer metrics.
    pub values: Values,
    /// The span tree.
    pub spans: Spans,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SOC engine over a large owned fleet, journal off.
    FleetOps,
    /// SOC engine recording a Debug-floor columnar journal, then a
    /// forensic query over it.
    FleetForensics,
    /// Multi-tenant server, read-heavy mix.
    ServiceMixed,
    /// Multi-tenant server, commit-heavy mix.
    ServiceCommits,
}

/// The system a workload drives, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A SOC fleet.
    Fleet(Fleet),
    /// A multi-tenant server.
    Service(Service),
}

/// Submit 20, push 70, query 9, ops 1.
const COMMIT_MIX: MixWeights = MixWeights {
    submit: 20,
    push: 70,
    query: 9,
    ops: 1,
};

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetOps,
        Workload::FleetForensics,
        Workload::ServiceMixed,
        Workload::ServiceCommits,
    ];

    /// The workload's name on the command line and in the output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOps => "fleet_ops",
            Workload::FleetForensics => "fleet_forensics",
            Workload::ServiceMixed => "service_mixed",
            Workload::ServiceCommits => "service_commits",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark size.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::FleetOps => Shape::Fleet(Fleet {
                hosts: 5_000,
                ticks: 200,
                journal: false,
            }),
            Workload::FleetForensics => Shape::Fleet(Fleet {
                hosts: 1_500,
                ticks: 200,
                journal: true,
            }),
            Workload::ServiceMixed => Shape::Service(Service {
                requests: 200_000,
                mix: MixWeights::default(),
            }),
            Workload::ServiceCommits => Shape::Service(Service {
                requests: 120_000,
                mix: COMMIT_MIX,
            }),
        }
    }

    /// The same workload at a size for unit tests.
    #[cfg(test)]
    #[must_use]
    pub fn tiny(self) -> Shape {
        match self.shape() {
            Shape::Fleet(f) => Shape::Fleet(Fleet {
                hosts: 24,
                ticks: 60,
                ..f
            }),
            Shape::Service(s) => Shape::Service(Service {
                requests: 3_000,
                ..s
            }),
        }
    }
}

impl Shape {
    /// Wall time of one set-up: fleet hardening, or tenant provisioning.
    ///
    /// # Errors
    /// When the work directory is unusable.
    pub fn setup_s(&self, seed: u64, work: &Path) -> Result<f64, String> {
        match self {
            Shape::Fleet(f) => f.setup_s(seed, work),
            Shape::Service(_) => Ok(Service::setup_s(seed)),
        }
    }

    /// One untraced repetition.
    ///
    /// # Errors
    /// When a correctness check fails or the work directory is unusable.
    pub fn rep(&self, seed: u64, work: &Path) -> Result<Rep, String> {
        match self {
            Shape::Fleet(f) => f.rep(seed, work),
            Shape::Service(s) => s.rep(seed, work),
        }
    }

    /// The traced pass.
    ///
    /// # Errors
    /// When a correctness check fails or the work directory is unusable.
    pub fn traced(&self, seed: u64, work: &Path) -> Result<Traced, String> {
        match self {
            Shape::Fleet(f) => f.traced(seed, work),
            Shape::Service(s) => s.traced(seed, work),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory no other test uses.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ledger-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn every_workload_passes_its_checks_at_a_tiny_size() {
        for w in Workload::ALL {
            let dir = scratch(&format!("checks-{}", w.name()));
            let shape = w.tiny();
            let fail = |e: String| -> ! { panic!("{}: {e}", w.name()) };
            let rep = shape.rep(1, &dir).unwrap_or_else(|e| fail(e));
            assert!(rep.units > 0 && rep.run_s > 0.0, "{}", w.name());
            assert_eq!(rep.failed, 0, "{}: no operation may fail", w.name());
            assert!(shape.setup_s(1, &dir).unwrap_or_else(|e| fail(e)) > 0.0);
            let traced = shape.traced(1, &dir).unwrap_or_else(|e| fail(e));
            assert_eq!(traced.digest, rep.digest, "{}", w.name());
            for name in traced.values.keys() {
                assert!(
                    metrics::per_layer().any(|d| d.name == *name),
                    "{}: {name} is not a per-layer metric",
                    w.name()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn equal_seeds_give_equal_digests_and_different_seeds_different_ones() {
        for w in Workload::ALL {
            let dir = scratch(&format!("seeds-{}", w.name()));
            let shape = w.tiny();
            let run = |seed| {
                shape
                    .rep(seed, &dir)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
            };
            let (a, b, c) = (run(1), run(1), run(2));
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(a.outcomes, b.outcomes, "{}", w.name());
            assert_ne!(a.digest, c.digest, "{}", w.name());
            assert_eq!(Rep::parse(&a.to_line()), Ok(a.clone()), "{}", w.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
