//! A validating builder for the pipeline config.
//!
//! [`PipelineConfig`] stays `Copy` and literal-constructible for tests
//! and struct-update syntax; the builder is the front door for configs
//! assembled from user input (CLI flags, experiment sweeps), turning
//! nonsense — a zero-commit pipeline, a 140% drift rate, a zero-tick
//! monitor period — into a recoverable [`ConfigError`] instead of a
//! panic or a silent degenerate run. A standalone operations phase takes
//! a [`vdo_soc::SocConfig`], which validates itself.

use std::fmt;

use vdo_soc::DetectionMode;

use crate::scenario::PipelineConfig;

/// Why a builder rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A probability field fell outside `[0, 1]`; payload is the field
    /// name and the offending value.
    RateOutOfRange(&'static str, f64),
    /// A field that must be nonzero was zero; payload is the field name.
    Zero(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RateOutOfRange(field, v) => {
                write!(f, "{field} must be a probability in [0, 1], got {v}")
            }
            ConfigError::Zero(field) => write!(f, "{field} must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

fn check_rate(field: &'static str, v: f64) -> Result<(), ConfigError> {
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(ConfigError::RateOutOfRange(field, v))
    }
}

/// Builder for [`PipelineConfig`]; see [`PipelineConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Number of commits in the development phase (must be ≥ 1).
    #[must_use]
    pub fn commits(mut self, commits: usize) -> Self {
        self.config.commits = commits;
        self
    }

    /// Probability a commit carries a smelly requirement.
    #[must_use]
    pub fn smelly_commit_rate(mut self, rate: f64) -> Self {
        self.config.smelly_commit_rate = rate;
        self
    }

    /// Probability a commit carries a compliance-breaking change.
    #[must_use]
    pub fn vulnerable_commit_rate(mut self, rate: f64) -> Self {
        self.config.vulnerable_commit_rate = rate;
        self
    }

    /// Probability a commit ships a broken behavioural model.
    #[must_use]
    pub fn broken_model_rate(mut self, rate: f64) -> Self {
        self.config.broken_model_rate = rate;
        self
    }

    /// Probability a commit ships a defective monitor artifact.
    #[must_use]
    pub fn bad_artifact_rate(mut self, rate: f64) -> Self {
        self.config.bad_artifact_rate = rate;
        self
    }

    /// Toggles the NALABS requirements gate.
    #[must_use]
    pub fn requirements_gate(mut self, on: bool) -> Self {
        self.config.requirements_gate = on;
        self
    }

    /// Toggles the RQCODE compliance gate.
    #[must_use]
    pub fn compliance_gate(mut self, on: bool) -> Self {
        self.config.compliance_gate = on;
        self
    }

    /// Toggles the GWT test-coverage gate.
    #[must_use]
    pub fn test_gate(mut self, on: bool) -> Self {
        self.config.test_gate = on;
        self
    }

    /// Toggles the vdo-analyze static-analysis gate.
    #[must_use]
    pub fn analysis_gate(mut self, on: bool) -> Self {
        self.config.analysis_gate = on;
        self
    }

    /// Toggles incremental (memoised, O(changed)) analysis gating.
    #[must_use]
    pub fn incremental_analysis(mut self, on: bool) -> Self {
        self.config.incremental_analysis = on;
        self
    }

    /// How operations detect drift (a periodic monitor of period
    /// `Some(0)` is rejected by [`build`](Self::build)).
    #[must_use]
    pub fn detection(mut self, detection: DetectionMode) -> Self {
        self.config.detection = detection;
        self
    }

    /// Operations duration in ticks (must be ≥ 1).
    #[must_use]
    pub fn ops_duration(mut self, ticks: u64) -> Self {
        self.config.ops_duration = ticks;
        self
    }

    /// Per-tick drift probability at operations.
    #[must_use]
    pub fn drift_rate(mut self, rate: f64) -> Self {
        self.config.drift_rate = rate;
        self
    }

    /// Master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Zero`] for zero `commits`, `ops_duration`, or a
    /// periodic `detection` with a `Some(0)` monitor period; [`ConfigError::RateOutOfRange`] for
    /// any probability outside `[0, 1]`.
    pub fn build(self) -> Result<PipelineConfig, ConfigError> {
        let c = &self.config;
        if c.commits == 0 {
            return Err(ConfigError::Zero("commits"));
        }
        if c.ops_duration == 0 {
            return Err(ConfigError::Zero("ops_duration"));
        }
        if let DetectionMode::Periodic {
            monitor: Some(0), ..
        } = c.detection
        {
            return Err(ConfigError::Zero("monitor period"));
        }
        check_rate("smelly_commit_rate", c.smelly_commit_rate)?;
        check_rate("vulnerable_commit_rate", c.vulnerable_commit_rate)?;
        check_rate("broken_model_rate", c.broken_model_rate)?;
        check_rate("bad_artifact_rate", c.bad_artifact_rate)?;
        check_rate("drift_rate", c.drift_rate)?;
        Ok(self.config)
    }
}

impl PipelineConfig {
    /// Starts a validating builder from the defaults.
    ///
    /// ```
    /// use vdo_pipeline::PipelineConfig;
    ///
    /// let cfg = PipelineConfig::builder()
    ///     .commits(20)
    ///     .drift_rate(0.05)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.commits, 20);
    /// assert!(PipelineConfig::builder().drift_rate(1.4).build().is_err());
    /// ```
    #[must_use]
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builders_reproduce_the_default_literals() {
        assert_eq!(
            PipelineConfig::builder().build().unwrap(),
            PipelineConfig::default()
        );
    }

    #[test]
    fn pipeline_builder_sets_every_field() {
        let cfg = PipelineConfig::builder()
            .commits(7)
            .smelly_commit_rate(0.5)
            .vulnerable_commit_rate(0.25)
            .broken_model_rate(0.0)
            .bad_artifact_rate(0.2)
            .requirements_gate(false)
            .compliance_gate(false)
            .test_gate(false)
            .analysis_gate(false)
            .detection(DetectionMode::Periodic {
                monitor: None,
                audit: 10,
            })
            .ops_duration(123)
            .drift_rate(1.0)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(cfg.commits, 7);
        assert!(!cfg.requirements_gate);
        assert!(!cfg.analysis_gate);
        assert_eq!(cfg.bad_artifact_rate, 0.2);
        assert_eq!(
            cfg.detection,
            DetectionMode::Periodic {
                monitor: None,
                audit: 10
            }
        );
        assert_eq!(cfg.ops_duration, 123);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn pipeline_builder_rejects_nonsense() {
        assert_eq!(
            PipelineConfig::builder().commits(0).build(),
            Err(ConfigError::Zero("commits"))
        );
        assert_eq!(
            PipelineConfig::builder().ops_duration(0).build(),
            Err(ConfigError::Zero("ops_duration"))
        );
        assert_eq!(
            PipelineConfig::builder()
                .detection(DetectionMode::Periodic {
                    monitor: Some(0),
                    audit: 500
                })
                .build(),
            Err(ConfigError::Zero("monitor period"))
        );
        assert_eq!(
            PipelineConfig::builder().drift_rate(-0.1).build(),
            Err(ConfigError::RateOutOfRange("drift_rate", -0.1))
        );
        assert_eq!(
            PipelineConfig::builder().smelly_commit_rate(1.5).build(),
            Err(ConfigError::RateOutOfRange("smelly_commit_rate", 1.5))
        );
        assert_eq!(
            PipelineConfig::builder().bad_artifact_rate(-1.0).build(),
            Err(ConfigError::RateOutOfRange("bad_artifact_rate", -1.0))
        );
        let msg = PipelineConfig::builder()
            .vulnerable_commit_rate(2.0)
            .build()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("vulnerable_commit_rate"));
        assert!(msg.contains("[0, 1]"));
    }

    #[test]
    fn built_configs_drive_real_runs() {
        let cfg = PipelineConfig::builder()
            .commits(10)
            .ops_duration(100)
            .seed(3)
            .build()
            .unwrap();
        let report = crate::run(&cfg, &vdo_trace::Telemetry::off());
        assert_eq!(report.commits, 10);
    }
}
