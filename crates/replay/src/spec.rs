//! The serialized identity of a recorded run.
//!
//! Because every engine in this workspace is seed-deterministic, a
//! run is fully described by a handful of scalars — the [`RunSpec`].
//! The recorder stores it as the journal's segment header (a tiny
//! `key=value` text block, hand-parsed because the offline `serde`
//! stand-in has no JSON reader), and [`crate::Replayer::open`]
//! re-derives the whole simulation from it.

use std::io;

use vdo_soc::{RemediationConfig, SocConfig};

/// Version line leading a serialized spec.
pub const SPEC_VERSION: &str = "vdo-replay-spec v1";

/// Everything needed to re-run a recorded simulation bit-exactly:
/// the seeds, the fleet size, and the SOC configuration knobs the
/// recorder honours. Serialized into every journal segment's header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Master seed for drift timing/content and fault rolls.
    pub seed: u64,
    /// Seed for requirement-root trace contexts.
    pub trace_seed: u64,
    /// Hardened hosts in the fleet.
    pub hosts: usize,
    /// Ticks simulated.
    pub duration: u64,
    /// Per-host per-tick drift probability.
    pub drift_rate: f64,
    /// Worker threads the live run used (replay may override — the
    /// engine's output is worker-count independent by contract).
    pub workers: usize,
    /// Bus shards.
    pub shards: usize,
    /// Remediation fault-injection probability.
    pub fault_rate: f64,
    /// Checkpoint spacing in ticks (a checkpoint is cut every
    /// `checkpoint_period` ticks, plus one at `duration`).
    pub checkpoint_period: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            seed: 11,
            trace_seed: 11,
            hosts: 16,
            duration: 200,
            drift_rate: 0.02,
            workers: 4,
            shards: 16,
            fault_rate: 0.0,
            checkpoint_period: 50,
        }
    }
}

impl RunSpec {
    /// The `key=value` text block stored as the journal header. Floats
    /// use Rust's shortest round-trip rendering, so
    /// [`from_header`](RunSpec::from_header) reconstructs them
    /// bit-exactly.
    #[must_use]
    pub fn to_header(&self) -> String {
        format!(
            "{SPEC_VERSION}\n\
             seed={}\n\
             trace_seed={}\n\
             hosts={}\n\
             duration={}\n\
             drift_rate={:?}\n\
             workers={}\n\
             shards={}\n\
             fault_rate={:?}\n\
             checkpoint_period={}\n",
            self.seed,
            self.trace_seed,
            self.hosts,
            self.duration,
            self.drift_rate,
            self.workers,
            self.shards,
            self.fault_rate,
            self.checkpoint_period,
        )
    }

    /// Parses a header produced by [`to_header`](RunSpec::to_header).
    /// Unknown keys are ignored (forward compatibility); a missing or
    /// repeated key, a malformed value, and a spec that
    /// [`validate`](RunSpec::validate) rejects are errors.
    pub fn from_header(header: &str) -> io::Result<RunSpec> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = header.lines();
        let version = lines.next().unwrap_or("");
        if version != SPEC_VERSION {
            return Err(invalid(format!("unsupported spec version {version:?}")));
        }
        let mut spec = RunSpec::default();
        let mut seen: Vec<&str> = Vec::with_capacity(9);
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(invalid(format!("malformed spec line {line:?}")));
            };
            fn parse<T: std::str::FromStr>(key: &str, value: &str) -> io::Result<T> {
                value.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed value for {key}: {value:?}"),
                    )
                })
            }
            match key {
                "seed" => spec.seed = parse(key, value)?,
                "trace_seed" => spec.trace_seed = parse(key, value)?,
                "hosts" => spec.hosts = parse(key, value)?,
                "duration" => spec.duration = parse(key, value)?,
                "drift_rate" => spec.drift_rate = parse(key, value)?,
                "workers" => spec.workers = parse(key, value)?,
                "shards" => spec.shards = parse(key, value)?,
                "fault_rate" => spec.fault_rate = parse(key, value)?,
                "checkpoint_period" => spec.checkpoint_period = parse(key, value)?,
                _ => continue, // forward compatibility
            }
            if seen.contains(&key) {
                return Err(invalid(format!("spec key {key} repeated")));
            }
            seen.push(key);
        }
        if seen.len() < 9 {
            return Err(invalid(format!(
                "spec header incomplete ({}/9 keys)",
                seen.len()
            )));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks that the spec describes a runnable simulation: its
    /// [`soc_config`](RunSpec::soc_config) passes
    /// [`SocConfig::validate`].
    ///
    /// # Errors
    /// `InvalidData`, naming the rejected value.
    pub fn validate(&self) -> io::Result<()> {
        self.soc_config(None, None)
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid spec: {e}")))
    }

    /// The SOC configuration this spec describes, optionally truncated
    /// to `duration` ticks and/or run on a different worker count.
    #[must_use]
    pub fn soc_config(&self, workers: Option<usize>, duration: Option<u64>) -> SocConfig {
        SocConfig {
            duration: duration.unwrap_or(self.duration),
            drift_rate: self.drift_rate,
            workers: workers.unwrap_or(self.workers),
            shards: self.shards,
            seed: self.seed,
            remediation: RemediationConfig {
                fault_rate: self.fault_rate,
                ..RemediationConfig::default()
            },
            ..SocConfig::default()
        }
    }

    /// The ticks at which checkpoints are cut: every
    /// `checkpoint_period`, plus the run's end.
    #[must_use]
    pub fn checkpoint_ticks(&self) -> Vec<u64> {
        let period = self.checkpoint_period.max(1);
        let mut ticks: Vec<u64> = (1..=self.duration).filter(|t| t % period == 0).collect();
        if ticks.last() != Some(&self.duration) && self.duration > 0 {
            ticks.push(self.duration);
        }
        ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_including_floats() {
        let spec = RunSpec {
            seed: 42,
            trace_seed: 7,
            hosts: 12,
            duration: 300,
            drift_rate: 0.037,
            workers: 3,
            shards: 8,
            fault_rate: 0.125,
            checkpoint_period: 60,
        };
        assert_eq!(RunSpec::from_header(&spec.to_header()).unwrap(), spec);
    }

    #[test]
    fn unknown_keys_are_ignored_missing_keys_are_not() {
        let mut header = RunSpec::default().to_header();
        header.push_str("future_knob=9\n");
        assert!(RunSpec::from_header(&header).is_ok());
        assert!(RunSpec::from_header("vdo-replay-spec v1\nseed=1\n").is_err());
        assert!(RunSpec::from_header("something else\n").is_err());
        assert!(RunSpec::from_header("vdo-replay-spec v1\nseed;1\n").is_err());
    }

    #[test]
    fn malformed_headers_are_errors() {
        let good = RunSpec::default().to_header();
        let body: Vec<&str> = good.lines().skip(1).collect();
        let header = |lines: &[&str]| format!("{SPEC_VERSION}\n{}\n", lines.join("\n"));
        let mut bad = Vec::new();
        for (i, line) in body.iter().enumerate() {
            let mut dropped = body.clone();
            dropped.remove(i);
            bad.push(header(&dropped));
            let mut repeated = body.clone();
            repeated.push(line);
            bad.push(header(&repeated));
        }
        // A repeated key must not stand in for a missing one.
        let swapped: Vec<&str> = body
            .iter()
            .map(|&l| if l.starts_with("hosts=") { body[0] } else { l })
            .collect();
        bad.push(header(&swapped));
        for (key, value) in [
            ("workers", "0"),
            ("shards", "0"),
            ("drift_rate", "-0.1"),
            ("drift_rate", "1.5"),
            ("drift_rate", "NaN"),
            ("fault_rate", "-0.1"),
            ("fault_rate", "1.5"),
            ("fault_rate", "NaN"),
        ] {
            let prefix = format!("{key}=");
            let line = format!("{key}={value}");
            let edited: Vec<&str> = body
                .iter()
                .map(|&l| {
                    if l.starts_with(&prefix) {
                        line.as_str()
                    } else {
                        l
                    }
                })
                .collect();
            bad.push(header(&edited));
        }
        for text in &bad {
            let err = RunSpec::from_header(text).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text}");
        }
        assert_eq!(
            RunSpec::from_header(&header(&body)).unwrap(),
            RunSpec::default()
        );
    }

    #[test]
    fn checkpoint_ticks_cover_the_run_end() {
        let spec = RunSpec {
            duration: 130,
            checkpoint_period: 50,
            ..RunSpec::default()
        };
        assert_eq!(spec.checkpoint_ticks(), [50, 100, 130]);
        let exact = RunSpec {
            duration: 100,
            checkpoint_period: 50,
            ..RunSpec::default()
        };
        assert_eq!(exact.checkpoint_ticks(), [50, 100]);
    }
}
